// Crash-chaos suite for the state file: every run drives a
// deterministic workload of whole-state writes against a Store mounted
// on a faultinject.CrashFS, which injects failed writes, torn writes,
// failed fsyncs, and kill-9 crashes at seeded operation indices. After
// the "machine dies", the store is re-opened on the surviving durable
// bytes and the recovered state is checked against the model:
//
//   - it is the last acknowledged state (Write returned nil) or a
//     state attempted after it — never an older one, so no
//     acknowledged write is lost;
//   - it is byte-identical to a state that was attempted, and the file
//     is never reported corrupt — no torn or fabricated state;
//   - a crash DURING Open leaves all of the above intact (Open's
//     removals are idempotent), and the reopened store accepts writes.
//
// Schedules are deterministic per (CHAOS_SEED, run index); override
// the defaults with CHAOS_SEED / CHAOS_RUNS to reproduce or extend.
package statefile_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"xqindep/internal/faultinject"
	"xqindep/internal/statefile"
)

func chaosEnvInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

// chaosModel tracks what the "application" offered and what the store
// acknowledged.
type chaosModel struct {
	attempted []string // every state offered to Write, in order
	acked     int      // index in attempted of the last acknowledged state; -1 for none
}

// chaosState returns the i-th state: unique, and of a length that
// varies, so a torn or stale file cannot pass for another state.
func chaosState(i int) string {
	return fmt.Sprintf("state-%04d:%s", i, strings.Repeat("x", i%37))
}

func checkInvariant(t *testing.T, m *chaosModel, rec statefile.Recovery, phase string) {
	t.Helper()
	if rec.Corrupt {
		t.Fatalf("%s: the state file is corrupt; a crash must never tear it", phase)
	}
	if rec.State == nil {
		if m.acked >= 0 {
			t.Fatalf("%s: acknowledged state %q lost: no state recovered", phase, m.attempted[m.acked])
		}
		return
	}
	for i := len(m.attempted) - 1; i >= max(m.acked, 0); i-- {
		if m.attempted[i] == string(rec.State) {
			return
		}
	}
	t.Fatalf("%s: recovered %q is older than the acknowledged state, torn, or never written (acked %d of %d attempts)",
		phase, rec.State, m.acked, len(m.attempted))
}

// chaosFaults builds a deterministic schedule: 1-3 faults at distinct
// operation indices within the workload's expected op budget.
func chaosFaults(rng *rand.Rand) []faultinject.FSFault {
	n := 1 + rng.Intn(3)
	used := map[int]bool{}
	var faults []faultinject.FSFault
	for len(faults) < n {
		op := 1 + rng.Intn(120)
		if used[op] {
			continue
		}
		used[op] = true
		faults = append(faults, faultinject.FSFault{
			Op:   op,
			Kind: faultinject.FSFaultKind(rng.Intn(4)),
			Keep: rng.Intn(16),
		})
	}
	return faults
}

func runCrashChaos(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	mem := statefile.NewMemFS()
	cfs := faultinject.NewCrashFS(mem, chaosFaults(rng)...)
	m := &chaosModel{acked: -1}

	store, _, err := statefile.Open(cfs, "state")
	alive := err == nil
	if err != nil && !errors.Is(err, faultinject.ErrCrashed) && !errors.Is(err, faultinject.ErrInjectedFS) {
		t.Fatalf("initial open failed with uninjected error: %v", err)
	}

	steps := 30 + rng.Intn(30)
	for i := 0; alive && i < steps; i++ {
		s := chaosState(i)
		m.attempted = append(m.attempted, s)
		if err := store.Write([]byte(s)); err != nil {
			if errors.Is(err, faultinject.ErrCrashed) {
				alive = false
			}
			continue // not acked; the next write carries on
		}
		m.acked = len(m.attempted) - 1
	}

	// If no injected crash ended the run, pull the plug now: kill -9
	// with a fixed per-run number of unsynced bytes surviving per file.
	if !cfs.Crashed() {
		keep := rng.Intn(8)
		mem.Crash(func(string, int) int { return keep })
	}

	// Reboot on the surviving bytes — recovery itself must succeed.
	_, rec, err := statefile.Open(mem, "state")
	if err != nil {
		t.Fatalf("recovery open failed: %v (fired: %v)\n%s", err, cfs.Fired(), mem.Dump())
	}
	checkInvariant(t, m, rec, "first recovery")

	// Crash DURING recovery: re-open through a fresh CrashFS that
	// kills the process at one of Open's two counted operations
	// (clearing snapshot.tmp, opening the state file), then recover
	// once more on the bare FS.
	cfs2 := faultinject.NewCrashFS(mem, faultinject.FSFault{
		Op:   1 + rng.Intn(2),
		Kind: faultinject.FSCrash,
		Keep: rng.Intn(16),
	})
	if _, _, err := statefile.Open(cfs2, "state"); !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("the crash during recovery did not fire: %v (fired: %v)", err, cfs2.Fired())
	}
	s4, rec2, err := statefile.Open(mem, "state")
	if err != nil {
		t.Fatalf("post-recovery-crash open failed: %v (fired: %v)\n%s", err, cfs2.Fired(), mem.Dump())
	}
	checkInvariant(t, m, rec2, "recovery after crashed recovery")

	// The rebooted store must accept writes again.
	if err := s4.Write([]byte("post-recovery")); err != nil {
		t.Fatalf("rebooted store refuses writes: %v", err)
	}
	if _, rec3, err := statefile.Open(mem, "state"); err != nil || string(rec3.State) != "post-recovery" {
		t.Fatalf("write after recovery not read back: %+v, %v", rec3, err)
	}
}

func TestCrashChaos(t *testing.T) {
	seed := int64(chaosEnvInt("CHAOS_SEED", 20260807))
	runs := chaosEnvInt("CHAOS_RUNS", 200)
	if testing.Short() {
		runs = min(runs, 25)
	}
	for run := 0; run < runs && !t.Failed(); run++ {
		run := run
		t.Run(fmt.Sprintf("seed=%d", seed+int64(run)), func(t *testing.T) {
			runCrashChaos(t, seed+int64(run))
		})
	}
}
