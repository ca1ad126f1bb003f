package statefile

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path"
	"strconv"
	"sync"
)

// SpoolStats is a point-in-time snapshot of a Spool's counters.
type SpoolStats struct {
	Writes       int64 `json:"writes"`
	WriteErrors  int64 `json:"write_errors"`
	Rotations    int64 `json:"rotations"`
	Flushes      int64 `json:"flushes"`
	FlushErrors  int64 `json:"flush_errors"`
	CurrentBytes int64 `json:"current_bytes"`
}

// spoolKeep is the number of rotated files a Spool keeps besides the
// current one.
const spoolKeep = 4

// Spool is a size-capped rotating append-only record spool: the
// incident JSONL trail's durable home. Each Write is one record (the
// sentinel's json.Encoder emits one line per call); when the current
// file would exceed the cap it rotates —
//
//	<base> → <base>.1 → <base>.2 → … → <base>.4 (dropped past spoolKeep)
//
// with the outgoing file fsynced first, so rotation never loses
// acknowledged records. Writes land in the file immediately but are
// only guaranteed durable after Flush (the drain path flushes; a
// crash between writes can lose the unsynced tail, which for a
// diagnostic trail is the right trade against an fsync per incident).
// Safe for concurrent use.
type Spool struct {
	fsys     FS
	dir      string
	base     string
	maxBytes int64

	mu     sync.Mutex
	f      File
	size   int64
	closed bool

	writes, writeErrs, rotations, flushes, flushErrs int64
}

// OpenSpool opens (creating if necessary) the spool <dir>/<base>.
// maxBytes caps one file (default 8 MiB, minimum 4 KiB).
func OpenSpool(fsys FS, dir, base string, maxBytes int64) (*Spool, error) {
	if maxBytes <= 0 {
		maxBytes = 8 << 20
	}
	if maxBytes < 4<<10 {
		maxBytes = 4 << 10
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("statefile: spool mkdir: %w", err)
	}
	sp := &Spool{fsys: fsys, dir: dir, base: base, maxBytes: maxBytes}
	if err := sp.openCurrent(); err != nil {
		return nil, err
	}
	return sp, nil
}

func (sp *Spool) current() string { return path.Join(sp.dir, sp.base) }

func (sp *Spool) rotated(i int) string {
	return path.Join(sp.dir, sp.base+"."+strconv.Itoa(i))
}

func (sp *Spool) openCurrent() error {
	f, err := sp.fsys.OpenFile(sp.current(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("statefile: open spool: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return fmt.Errorf("statefile: spool size: %w", err)
	}
	sp.f, sp.size = f, size
	return nil
}

// Write appends one record. Oversized records still land (a record is
// never split across files); the file simply rotates first.
func (sp *Spool) Write(p []byte) (int, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.closed {
		return 0, errors.New("statefile: spool closed")
	}
	if sp.size > 0 && sp.size+int64(len(p)) > sp.maxBytes {
		if err := sp.rotateLocked(); err != nil {
			sp.writeErrs++
			return 0, err
		}
	}
	n, err := sp.f.Write(p)
	sp.size += int64(n)
	if err != nil {
		sp.writeErrs++
		return n, fmt.Errorf("statefile: spool write: %w", err)
	}
	sp.writes++
	return n, nil
}

// rotateLocked fsyncs and closes the current file, shifts the rotated
// chain, and opens a fresh current file. Whichever step fails, the
// current file is reopened, so the next Write retries the rotation on
// a live handle instead of failing on a closed one for good.
func (sp *Spool) rotateLocked() error {
	err := sp.shiftLocked()
	if oerr := sp.openCurrent(); err == nil {
		err = oerr
	}
	if err == nil {
		sp.rotations++
	}
	return err
}

// shiftLocked closes the current file and moves it to <base>.1, each
// rotated file one place down the chain.
func (sp *Spool) shiftLocked() error {
	serr := sp.f.Sync()
	cerr := sp.f.Close()
	if serr != nil || cerr != nil {
		return fmt.Errorf("statefile: spool rotate flush: %w", errors.Join(serr, cerr))
	}
	if err := sp.fsys.Remove(sp.rotated(spoolKeep)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("statefile: spool rotate drop: %w", err)
	}
	for i := spoolKeep - 1; i >= 1; i-- {
		if err := sp.fsys.Rename(sp.rotated(i), sp.rotated(i+1)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("statefile: spool rotate shift: %w", err)
		}
	}
	if err := sp.fsys.Rename(sp.current(), sp.rotated(1)); err != nil {
		return fmt.Errorf("statefile: spool rotate: %w", err)
	}
	if err := sp.fsys.SyncDir(sp.dir); err != nil {
		return fmt.Errorf("statefile: spool rotate sync dir: %w", err)
	}
	return nil
}

// Flush makes every record written so far durable.
func (sp *Spool) Flush() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.closed {
		return nil
	}
	if err := sp.f.Sync(); err != nil {
		sp.flushErrs++
		return fmt.Errorf("statefile: spool flush: %w", err)
	}
	sp.flushes++
	return nil
}

// Close flushes and closes the spool.
func (sp *Spool) Close() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.closed {
		return nil
	}
	sp.closed = true
	serr := sp.f.Sync()
	if serr == nil {
		sp.flushes++
	} else {
		sp.flushErrs++
	}
	cerr := sp.f.Close()
	if serr != nil || cerr != nil {
		return fmt.Errorf("statefile: spool close: %w", errors.Join(serr, cerr))
	}
	return nil
}

// Stats snapshots the spool counters.
func (sp *Spool) Stats() SpoolStats {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return SpoolStats{
		Writes:       sp.writes,
		WriteErrors:  sp.writeErrs,
		Rotations:    sp.rotations,
		Flushes:      sp.flushes,
		FlushErrors:  sp.flushErrs,
		CurrentBytes: sp.size,
	}
}
