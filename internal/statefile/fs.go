// Package statefile is the crash-safe durable-state substrate of the
// serving layer: the quarantine registry's containment decisions
// (package quarantine) and the sentinel's incident spool (package
// sentinel) must survive daemon restarts, or a restart silently
// forgets which schema fingerprints an audit already refuted and
// resumes serving full-strength verdicts from them.
//
// The package offers two durable primitives, both stdlib-only:
//
//   - Store (store.go): one checksummed state file that every Write
//     replaces whole and atomically (write temp, fsync, rename, fsync
//     dir). The state it guards is a few records written only on
//     audit-lane transitions, so rewriting all of it costs less than
//     any log structure would save.
//
//   - Spool (spool.go): a size-capped rotating append-only byte spool
//     (one record per Write) with explicit Flush-to-disk, used for the
//     incident JSONL trail.
//
// Everything reaches the disk through the FS interface below so the
// chaos harness (faultinject.CrashFS over MemFS) can simulate partial
// writes, failed fsyncs and kill-9 crashes deterministically. The one
// implementation touching the ambient os package is OS() in osfs.go;
// the xqvet fsdiscipline check confines it there mechanically.
//
// Crash model. Renames, removes and file creation are atomic and
// durable once SyncDir returns (the journaling-filesystem guarantee
// the state file's rename leans on); file *data* is durable only up to
// the last successful Sync, and a crash may persist any prefix of the
// unsynced tail.
package statefile

import (
	"io"
	"io/fs"
)

// File is one open file of an FS. Reads and writes share the usual
// os.File semantics for the flags the file was opened with; Sync
// makes previously written data durable.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
	Size() (int64, error)
}

// FS is the filesystem seam of the durable-state layer. Path
// semantics follow the os package ("/"-separated, relative to the
// process working directory for OS()). Implementations must be safe
// for concurrent use.
type FS interface {
	// OpenFile opens name with os.O_* flags and perm (for creation).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes name (fs.ErrNotExist when absent).
	Remove(name string) error
	// MkdirAll creates dir and its parents.
	MkdirAll(dir string, perm fs.FileMode) error
	// ReadDir lists the entry base names of dir, sorted.
	ReadDir(dir string) ([]string, error)
	// SyncDir makes dir's entry metadata (renames, creations,
	// removals) durable.
	SyncDir(dir string) error
}
