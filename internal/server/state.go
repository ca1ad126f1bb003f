package server

import (
	"context"
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
//   - the quarantine registry's containment decisions, journaled on
//     every audit-lane transition and compacted into a snapshot at
//     drain (so a restarted daemon still refuses a fingerprint the
//     auditor caught lying before the crash);
//   - the incident JSONL spool, size-capped and rotated, flushed at
//     drain.
//
// Both live under one state directory:
//
//	<dir>/snapshot, <dir>/journal.<gen>   quarantine records
//	<dir>/incidents.jsonl[.N]             incident spool chain
//
// OpenState replays the journal into the registry BEFORE the first
// request can ask for a downgrade decision; wiring the journal hook
// happens after replay, so restored records are not re-journaled.
type DurableState struct {
	dir   string
	store *statefile.Store
	spool *statefile.Spool
	reg   *quarantine.Registry

	recovery  statefile.Recovery
	restored  int
	malformed int

	journalErrs atomic.Int64
	closed      atomic.Bool
}

// StateConfig configures OpenState.
type StateConfig struct {
	// Dir is the state directory (required).
	Dir string
}

// DurabilityStatus is the /statz durability section and the boot
// recovery summary.
type DurabilityStatus struct {
	Dir string `json:"dir"`
	// RestoredFingerprints is how many quarantined/half-open
	// fingerprints the replay re-armed at boot.
	RestoredFingerprints int `json:"restored_fingerprints"`
	// RecoveredRecords / DiscardedRecords / DiscardedBytes describe
	// journal replay: records replayed, torn tails truncated, bytes
	// discarded with them.
	RecoveredRecords int   `json:"recovered_records"`
	DiscardedRecords int   `json:"discarded_records"`
	DiscardedBytes   int64 `json:"discarded_bytes,omitempty"`
	// MalformedRecords counts replayed records that passed their
	// checksum but failed to decode — storage damage, never a torn
	// write.
	MalformedRecords int  `json:"malformed_records,omitempty"`
	SnapshotLoaded   bool `json:"snapshot_loaded"`
	SnapshotCorrupt  bool `json:"snapshot_corrupt,omitempty"`
	// JournalErrors counts audit-lane transitions that failed to reach
	// disk (the in-memory registry still holds them; only a crash
	// before the next successful snapshot would lose them).
	JournalErrors int64                `json:"journal_errors"`
	Journal       statefile.StoreStats `json:"journal"`
	Spool         statefile.SpoolStats `json:"spool"`
}

// OpenState mounts the state directory, replays the quarantine
// journal into reg (rebasing backoff deadlines onto reg's clock) and
// starts journaling reg's audit-lane transitions. The journal store
// and the incident spool take the statefile defaults: 8 MiB per spool
// file, four rotated files kept. Call before the first request is
// admitted.
func OpenState(fsys statefile.FS, cfg StateConfig, reg *quarantine.Registry) (*DurableState, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("server: state dir required")
	}
	if reg == nil {
		return nil, fmt.Errorf("server: state requires a quarantine registry")
	}
	store, rec, err := statefile.Open(fsys, cfg.Dir, statefile.Options{})
	if err != nil {
		return nil, fmt.Errorf("server: open state: %w", err)
	}
	spool, err := statefile.OpenSpool(fsys, cfg.Dir, "incidents.jsonl", 0, 0)
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("server: open incident spool: %w", err)
	}
	ds := &DurableState{dir: cfg.Dir, store: store, spool: spool, reg: reg, recovery: rec}

	// Replay: snapshot (a full Export) first, then the journal records
	// appended after it, last writer winning per fingerprint.
	var recs []quarantine.Record
	if rec.Snapshot != nil {
		if err := json.Unmarshal(rec.Snapshot, &recs); err != nil {
			// The snapshot passed its checksum, so this is damage the
			// frame cannot see; fall back to the journal alone.
			ds.malformed++
			recs = nil
		}
	}
	for _, raw := range rec.Records {
		var qr quarantine.Record
		if err := json.Unmarshal(raw, &qr); err != nil {
			ds.malformed++
			continue
		}
		recs = append(recs, qr)
	}
	ds.restored = reg.Restore(recs)

	// Journal from here on: every audit-lane transition becomes one
	// durable record. Failures are counted, not fatal — the in-memory
	// registry stays authoritative and the next snapshot retries.
	reg.SetJournal(func(qr quarantine.Record) {
		b, merr := json.Marshal(qr)
		if merr != nil {
			ds.journalErrs.Add(1)
			return
		}
		if aerr := store.Append(b); aerr != nil {
			ds.journalErrs.Add(1)
		}
	})
	return ds, nil
}

// Spool returns the incident spool as the io.Writer the sentinel
// Config expects (it also satisfies the Flush interface the auditor's
// drain path probes for).
func (ds *DurableState) Spool() io.Writer { return ds.spool }

// Snapshot compacts the registry's full state into the snapshot file
// and rotates the journal.
func (ds *DurableState) Snapshot() error {
	b, err := json.Marshal(ds.reg.Export())
	if err != nil {
		return fmt.Errorf("server: marshal state snapshot: %w", err)
	}
	return ds.store.Snapshot(b)
}

// Drain makes the runtime state durable on the way down: the incident
// spool is flushed always (cheap, one fsync), the snapshot compaction
// runs only while ctx is alive — with the journal's per-append
// durability it is an optimisation, not a correctness step, so a
// blown drain deadline skips it rather than stall the exit.
func (ds *DurableState) Drain(ctx context.Context) error {
	if ds == nil {
		return nil
	}
	ferr := ds.spool.Flush()
	var serr error
	if ctx.Err() == nil {
		serr = ds.Snapshot()
	}
	if ferr != nil {
		return ferr
	}
	return serr
}

// Close snapshots once more and releases the files. Safe after Drain;
// second and later calls are no-ops.
func (ds *DurableState) Close() error {
	if ds == nil || !ds.closed.CompareAndSwap(false, true) {
		return nil
	}
	serr := ds.Snapshot()
	cerr := ds.store.Close()
	perr := ds.spool.Close()
	if serr != nil {
		return serr
	}
	if cerr != nil {
		return cerr
	}
	return perr
}

// Status reports the durability counters for /statz and boot logs.
func (ds *DurableState) Status() DurabilityStatus {
	if ds == nil {
		return DurabilityStatus{}
	}
	return DurabilityStatus{
		Dir:                  ds.dir,
		RestoredFingerprints: ds.restored,
		RecoveredRecords:     ds.recovery.Recovered,
		DiscardedRecords:     ds.recovery.Discarded,
		DiscardedBytes:       ds.recovery.DiscardedBytes,
		MalformedRecords:     ds.malformed,
		SnapshotLoaded:       ds.recovery.Snapshot != nil,
		SnapshotCorrupt:      ds.recovery.SnapshotCorrupt,
		JournalErrors:        ds.journalErrs.Load(),
		Journal:              ds.store.Stats(),
		Spool:                ds.spool.Stats(),
	}
}
