package server

import (
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"

	"xqindep/internal/quarantine"
	"xqindep/internal/statefile"
)

// DurableState composes the statefile primitives into the daemon's
// crash-safe runtime state:
//
//   - the quarantine registry's containment decisions: every
//     audit-lane transition replaces the state file with the
//     registry's whole export before it returns, so a restarted daemon
//     still refuses a fingerprint the auditor caught lying before the
//     crash;
//   - the incident JSONL spool, size-capped and rotated, flushed at
//     drain.
//
// Both live under one state directory:
//
//	<dir>/snapshot                quarantine records
//	<dir>/incidents.jsonl[.N]     incident spool chain
//
// OpenState restores the state file into the registry BEFORE the
// first request can ask for a downgrade decision, and installs the
// persistence hook after that, so the restore itself writes nothing.
type DurableState struct {
	dir   string
	store *statefile.Store
	spool *statefile.Spool
	reg   *quarantine.Registry

	restored        int
	loaded, corrupt bool

	writes, writeErrs atomic.Int64
	closed            atomic.Bool
}

// DurabilityStatus is the /statz durability section and the boot
// recovery summary.
type DurabilityStatus struct {
	Dir string `json:"dir"`
	// RestoredFingerprints is how many quarantined/half-open
	// fingerprints the state file re-armed at boot.
	RestoredFingerprints int `json:"restored_fingerprints"`
	// SnapshotLoaded reports that boot restored a state file.
	SnapshotLoaded bool `json:"snapshot_loaded"`
	// SnapshotCorrupt reports a state file that failed its checksum or
	// whose records did not decode; the registry then started empty.
	SnapshotCorrupt bool `json:"snapshot_corrupt,omitempty"`
	// Writes and WriteErrors count state-file writes that completed
	// and that failed. After a failed write the in-memory registry
	// still holds the transition, and the next completed write
	// carries it.
	Writes      int64                `json:"writes"`
	WriteErrors int64                `json:"write_errors"`
	Spool       statefile.SpoolStats `json:"spool"`
}

// OpenState mounts the state directory dir, restores its state file
// into reg (rebasing backoff deadlines onto reg's clock) and from then on
// persists reg's audit-lane transitions. The incident spool takes the
// statefile defaults: 8 MiB per file, four rotated files kept. Call
// before the first request is admitted.
func OpenState(fsys statefile.FS, dir string, reg *quarantine.Registry) (*DurableState, error) {
	if dir == "" {
		return nil, fmt.Errorf("server: state dir required")
	}
	if reg == nil {
		return nil, fmt.Errorf("server: state requires a quarantine registry")
	}
	store, rec, err := statefile.Open(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("server: open state: %w", err)
	}
	spool, err := statefile.OpenSpool(fsys, dir, "incidents.jsonl", 0)
	if err != nil {
		return nil, fmt.Errorf("server: open incident spool: %w", err)
	}
	ds := &DurableState{dir: dir, store: store, spool: spool, reg: reg, corrupt: rec.Corrupt}
	var recs []quarantine.Record
	if rec.State != nil {
		if err := json.Unmarshal(rec.State, &recs); err != nil {
			// The frame passed its checksum, so this is damage the
			// frame cannot see; start empty, as for a bad frame.
			ds.corrupt, recs = true, nil
		} else {
			ds.loaded = true
		}
	}
	ds.restored = reg.Restore(recs)
	reg.SetPersist(ds.write)
	return ds, nil
}

// write replaces the state file with recs: the registry's persistence
// hook. Failures are counted, not fatal — the in-memory registry stays
// authoritative and the next write retries with the whole state.
func (ds *DurableState) write(recs []quarantine.Record) error {
	b, err := json.Marshal(recs)
	if err == nil {
		err = ds.store.Write(b)
	}
	if err != nil {
		ds.writeErrs.Add(1)
		return err
	}
	ds.writes.Add(1)
	return nil
}

// Spool returns the incident spool as the io.Writer the sentinel
// Config expects (it also satisfies the Flush interface the auditor's
// drain path probes for).
func (ds *DurableState) Spool() io.Writer { return ds.spool }

// Drain flushes the incident spool on the way down. The quarantine
// state needs no drain step: every transition was durable before it
// returned.
func (ds *DurableState) Drain() error {
	if ds == nil {
		return nil
	}
	return ds.spool.Flush()
}

// Close writes the state file once more, so that a clean restart
// resumes each backoff with what was left of it at exit, and closes
// the spool. Safe after Drain; second and later calls are no-ops.
func (ds *DurableState) Close() error {
	if ds == nil || !ds.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := ds.reg.Persist()
	if cerr := ds.spool.Close(); err == nil {
		err = cerr
	}
	return err
}

// Status reports the durability counters for /statz and boot logs.
func (ds *DurableState) Status() DurabilityStatus {
	if ds == nil {
		return DurabilityStatus{}
	}
	return DurabilityStatus{
		Dir:                  ds.dir,
		RestoredFingerprints: ds.restored,
		SnapshotLoaded:       ds.loaded,
		SnapshotCorrupt:      ds.corrupt,
		Writes:               ds.writes.Load(),
		WriteErrors:          ds.writeErrs.Load(),
		Spool:                ds.spool.Stats(),
	}
}
