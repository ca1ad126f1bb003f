package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"xqindep/internal/faultinject"
	"xqindep/internal/quarantine"
	"xqindep/internal/statefile"
)

// The restart-refusal proof: a fingerprint quarantined before a
// "crash" (process restart onto the same state directory) is still
// refused — downgraded to the conservative verdict — by the restarted
// server, before any new audit evidence exists.
func TestRestartRefusesPreCrashQuarantinedFingerprint(t *testing.T) {
	mem := statefile.NewMemFS()
	task := mustTask(t, bibSchema, "//title", "delete //price")
	fp := task.Analyzer.D.Fingerprint()

	// Life 1: quarantine the fingerprint (as the auditor would on a
	// disagreement), serve one downgraded verdict, drain.
	reg := quarantine.NewRegistry(1)
	ds, err := OpenState(mem, "state", reg)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 1, Quarantine: reg, State: ds})
	reg.Quarantine(fp)
	res, err := srv.Do(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if res.Independent || !quarantine.IsQuarantined(res.Err) {
		t.Fatalf("life 1 verdict not downgraded: %+v", res)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash: everything unsynced is gone. Every state-file write
	// is fsynced before it returns, so this must lose nothing that was
	// acknowledged.
	mem.Crash(nil)

	// Life 2: fresh registry, fresh server, same state directory.
	reg2 := quarantine.NewRegistry(1)
	ds2, err := OpenState(mem, "state", reg2)
	if err != nil {
		t.Fatalf("reopen state: %v", err)
	}
	if st := ds2.Status(); st.RestoredFingerprints != 1 {
		t.Fatalf("restored fingerprints: %+v", st)
	}
	srv2 := New(Config{Workers: 1, Quarantine: reg2, State: ds2})
	res, err = srv2.Do(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if res.Independent || !quarantine.IsQuarantined(res.Err) {
		t.Fatalf("restart served the quarantined schema un-downgraded: %+v", res)
	}

	// /statz reports the durability section.
	h := NewHandler(srv2)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/statz", nil))
	var payload StatzPayload
	if err := json.Unmarshal(rr.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Durability == nil || payload.Durability.RestoredFingerprints != 1 || payload.Durability.Dir != "state" {
		t.Fatalf("statz durability: %+v", payload.Durability)
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	ds2.Close()
}

// Registry-level crash chaos: quarantine transitions persisted
// through OpenState on a faulty filesystem, killed at seeded points.
// Invariant: every transition that an ACKNOWLEDGED state-file write
// carried (observable as a completed write in the status counters)
// survives the crash — the restored registry still refuses those
// fingerprints. A write carries every transition before it, including
// those whose own write failed.
func TestStateCrashChaosQuarantineJournal(t *testing.T) {
	runs := 100
	if testing.Short() {
		runs = 20
	}
	for run := 0; run < runs && !t.Failed(); run++ {
		run := run
		t.Run(fmt.Sprintf("run%03d", run), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(20260807 + run)))
			mem := statefile.NewMemFS()
			var faults []faultinject.FSFault
			for i := 0; i < 1+rng.Intn(2); i++ {
				faults = append(faults, faultinject.FSFault{
					Op:   1 + rng.Intn(60),
					Kind: faultinject.FSFaultKind(rng.Intn(4)),
					Keep: rng.Intn(16),
				})
			}
			cfs := faultinject.NewCrashFS(mem, faults...)

			reg := quarantine.NewRegistry(1)
			ds, err := OpenState(cfs, "state", reg)
			if err != nil {
				// Fault during mount: nothing acked, nothing to check.
				return
			}
			acked := map[string]bool{}
			var pending []string // quarantined, not yet carried by an acked write
			for i := 0; i < 12 && !cfs.Crashed(); i++ {
				before := ds.Status()
				if rng.Intn(6) == 0 {
					// The shutdown write: no transition of its own.
					_ = reg.Persist()
				} else {
					fp := fmt.Sprintf("fp-%02d", i%5)
					reg.Quarantine(fp)
					pending = append(pending, fp)
				}
				after := ds.Status()
				if after.Writes == before.Writes+1 && after.WriteErrors == before.WriteErrors {
					for _, fp := range pending {
						acked[fp] = true
					}
					pending = nil
				}
			}
			if !cfs.Crashed() {
				keep := rng.Intn(8)
				mem.Crash(func(string, int) int { return keep })
			}

			reg2 := quarantine.NewRegistry(1)
			ds2, err := OpenState(mem, "state", reg2)
			if err != nil {
				t.Fatalf("recovery mount failed: %v (fired %v)\n%s", err, cfs.Fired(), mem.Dump())
			}
			for fp := range acked {
				if !reg2.Downgrade(fp) {
					t.Fatalf("acked quarantine of %s lost across crash (fired %v, status %+v)\n%s",
						fp, cfs.Fired(), ds2.Status(), mem.Dump())
				}
			}
			if st := ds2.Status(); st.SnapshotCorrupt {
				t.Fatalf("crash left a corrupt state file (fired %v)\n%s", cfs.Fired(), mem.Dump())
			}
			ds2.Close()
		})
	}
}

// TestFailedWriteIsCarriedByTheNextWrite: the data write of fp-a's
// transition fails, then fp-b's transition writes on a healthy disk.
// The state file holds the whole registry, so fp-b's write carries
// fp-a: both are held after a clean Close, and after a kill -9 instead
// of the Close.
func TestFailedWriteIsCarriedByTheNextWrite(t *testing.T) {
	for _, end := range []string{"close", "kill-9"} {
		t.Run(end, func(t *testing.T) {
			mem := statefile.NewMemFS()
			// OpenState counts three operations: clearing snapshot.tmp,
			// opening the state file and opening the spool. fp-a's write
			// is operations 4 to 8; operation 5 is its data write.
			cfs := faultinject.NewCrashFS(mem, faultinject.FSFault{Op: 5, Kind: faultinject.FSErrWrite})
			reg := quarantine.NewRegistry(1)
			ds, err := OpenState(cfs, "state", reg)
			if err != nil {
				t.Fatal(err)
			}
			reg.Quarantine("fp-a")
			if st := ds.Status(); st.Writes != 0 || st.WriteErrors != 1 {
				t.Fatalf("the fault missed fp-a's write: %+v (fired %v)", st, cfs.Fired())
			}
			reg.Quarantine("fp-b")
			if st := ds.Status(); st.Writes != 1 || st.WriteErrors != 1 {
				t.Fatalf("fp-b's write on a healthy disk: %+v (fired %v)", st, cfs.Fired())
			}
			if end == "close" {
				if err := ds.Close(); err != nil {
					t.Fatal(err)
				}
			} else {
				mem.Crash(nil)
			}

			reg2 := quarantine.NewRegistry(1)
			ds2, err := OpenState(mem, "state", reg2)
			if err != nil {
				t.Fatal(err)
			}
			defer ds2.Close()
			for _, fp := range []string{"fp-a", "fp-b"} {
				if !reg2.Downgrade(fp) {
					t.Fatalf("%s not held after %s (status %+v)", fp, end, ds2.Status())
				}
			}
		})
	}
}

// parentStateDir plants a state directory as the journal-keeping
// release leaves it after a drain, byte for byte: its snapshot frame (a
// 4-byte big-endian length, the 8-byte big-endian FNV-64a of the
// payload, and a JSON envelope of gen, unix and the base64 of the
// registry export) beside journal.<gen>, empty unless journal holds
// bytes.
func parentStateDir(t *testing.T, mem *statefile.MemFS, recs []quarantine.Record, journal []byte) {
	t.Helper()
	state, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(struct {
		Gen   uint64 `json:"gen"`
		Unix  int64  `json:"unix"`
		State []byte `json:"state"`
	}{Gen: 4, Unix: 1700000000000000000, State: state})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(payload)
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.BigEndian.AppendUint64(frame, h.Sum64())
	frame = append(frame, payload...)
	for name, b := range map[string][]byte{"state/snapshot": frame, "state/journal.4": journal} {
		f, err := mem.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(b)
		f.Sync()
		f.Close()
	}
}

// TestParentDrainedDirectoryRestores: a directory the journal-keeping
// release drained restores its quarantines unchanged, and its empty
// journal is deleted.
func TestParentDrainedDirectoryRestores(t *testing.T) {
	mem := statefile.NewMemFS()
	parentStateDir(t, mem, []quarantine.Record{
		{Fingerprint: "fp-a", State: quarantine.StateQuarantined, Disagreements: 1, Trips: 1, Purged: true,
			Backoff: time.Hour, Remaining: 40 * time.Minute},
		{Fingerprint: "fp-b", State: quarantine.StateHalfOpen, Disagreements: 2, Trips: 2, Purged: true,
			Backoff: 2 * time.Hour, Clean: 1},
		{Fingerprint: "fp-c", State: quarantine.StateWatched, Disagreements: 1},
	}, nil)
	reg := quarantine.NewRegistry(1)
	ds, err := OpenState(mem, "state", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if st := ds.Status(); st.RestoredFingerprints != 2 || !st.SnapshotLoaded || st.SnapshotCorrupt {
		t.Fatalf("status: %+v", st)
	}
	if reg.State("fp-a") != "quarantined" || reg.State("fp-b") != "half-open" || reg.State("fp-c") != "clean" {
		t.Fatalf("states: a=%s b=%s c=%s", reg.State("fp-a"), reg.State("fp-b"), reg.State("fp-c"))
	}
	if names, _ := mem.ReadDir("state"); strings.Join(names, ",") != "incidents.jsonl,snapshot" {
		t.Fatalf("directory after open: %v", names)
	}
}

// TestParentJournalWithRecordsRefused: a crashed journal-keeping
// release leaves acknowledged records in its journal. OpenState cannot
// replay them and fails rather than serve without them.
func TestParentJournalWithRecordsRefused(t *testing.T) {
	mem := statefile.NewMemFS()
	parentStateDir(t, mem, nil, []byte(`not empty`))
	_, err := OpenState(mem, "state", quarantine.NewRegistry(1))
	if err == nil || !strings.Contains(err.Error(), "state/journal.4") {
		t.Fatalf("OpenState over a non-empty journal: %v", err)
	}
}
