package faultinject

// Filesystem fault injection for the durable-state layer (package
// statefile): CrashFS interposes on a statefile.FS and, at scheduled
// operation indices, injects the three failure modes a crash-safe
// store must survive — a failed write, a *partial* (torn) write, a
// failed fsync, and the kill-9 crash that ends the process mid-
// operation. Schedules are deterministic: the fault fires at the N-th
// counted operation, so a seeded harness reproduces a run exactly.

import (
	"errors"
	"io/fs"
	"sync"

	"xqindep/internal/statefile"
)

// FS fault sentinels.
var (
	// ErrInjectedFS marks a non-fatal injected filesystem error (the
	// operation failed; the process keeps running).
	ErrInjectedFS = errors.New("faultinject: injected fs error")
	// ErrCrashed marks every operation attempted after an FSCrash: the
	// process is "dead" and the harness must reboot onto a fresh FS
	// view to continue.
	ErrCrashed = errors.New("faultinject: fs crashed (kill-9)")
)

// FSFaultKind selects what an armed filesystem fault injects.
type FSFaultKind int

const (
	// FSErrWrite fails the write outright; nothing reaches the file.
	FSErrWrite FSFaultKind = iota
	// FSShortWrite persists only Keep bytes of the write, then fails —
	// the classic torn write.
	FSShortWrite
	// FSErrSync fails the fsync; the data stays volatile and is
	// subject to loss at a later crash.
	FSErrSync
	// FSCrash kills the process at this operation: the operation and
	// every later one fail with ErrCrashed, and the backing MemFS
	// drops unsynced data down to Keep bytes per file (the torn tail a
	// power cut leaves behind).
	FSCrash
)

func (k FSFaultKind) String() string {
	switch k {
	case FSErrWrite:
		return "err-write"
	case FSShortWrite:
		return "short-write"
	case FSErrSync:
		return "err-sync"
	case FSCrash:
		return "crash"
	}
	return "FSFaultKind(?)"
}

// FSFault arms one injection at the Op-th (1-based) counted mutating
// operation. Counted operations: OpenFile, Write, Sync, Rename,
// Remove, SyncDir.
type FSFault struct {
	Op   int
	Kind FSFaultKind
	// Keep bounds what survives: bytes of the in-flight write for
	// FSShortWrite, unsynced bytes retained per file for FSCrash.
	Keep int
}

// CrashFS wraps a statefile.MemFS with a deterministic fault
// schedule. Faults target the write/sync/metadata operations the
// statefile protocols depend on; read-side operations pass through
// (until a crash, after which everything fails). Safe for concurrent
// use.
type CrashFS struct {
	mem *statefile.MemFS

	mu      sync.Mutex
	faults  []FSFault
	ops     int
	crashed bool
	fired   []string
}

// NewCrashFS arms faults over mem.
func NewCrashFS(mem *statefile.MemFS, faults ...FSFault) *CrashFS {
	return &CrashFS{mem: mem, faults: faults}
}

// Crashed reports whether an FSCrash has fired.
func (c *CrashFS) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// Fired describes the faults that have fired, in order.
func (c *CrashFS) Fired() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.fired...)
}

// step counts one mutating operation and returns the fault armed for
// it, if any. After a crash every operation reports ErrCrashed.
func (c *CrashFS) step(op string) (FSFault, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return FSFault{}, ErrCrashed
	}
	c.ops++
	for _, f := range c.faults {
		if f.Op != c.ops {
			continue
		}
		c.fired = append(c.fired, op+"/"+f.Kind.String())
		if f.Kind == FSCrash {
			c.crashed = true
			keep := f.Keep
			c.mu.Unlock()
			// The power cut: unsynced tails shrink to at most keep
			// bytes per file. Deterministic for a fixed schedule.
			c.mem.Crash(func(string, int) int { return keep })
			c.mu.Lock()
			return f, ErrCrashed
		}
		return f, nil
	}
	return FSFault{}, nil
}

func (c *CrashFS) OpenFile(name string, flag int, perm fs.FileMode) (statefile.File, error) {
	if _, err := c.step("open"); err != nil {
		return nil, err
	}
	f, err := c.mem.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &crashFile{fs: c, f: f}, nil
}

func (c *CrashFS) Rename(oldname, newname string) error {
	if _, err := c.step("rename"); err != nil {
		return err
	}
	return c.mem.Rename(oldname, newname)
}

func (c *CrashFS) Remove(name string) error {
	if _, err := c.step("remove"); err != nil {
		return err
	}
	return c.mem.Remove(name)
}

func (c *CrashFS) MkdirAll(dir string, perm fs.FileMode) error {
	c.mu.Lock()
	dead := c.crashed
	c.mu.Unlock()
	if dead {
		return ErrCrashed
	}
	return c.mem.MkdirAll(dir, perm)
}

func (c *CrashFS) ReadDir(dir string) ([]string, error) {
	c.mu.Lock()
	dead := c.crashed
	c.mu.Unlock()
	if dead {
		return nil, ErrCrashed
	}
	return c.mem.ReadDir(dir)
}

func (c *CrashFS) SyncDir(dir string) error {
	f, err := c.step("syncdir")
	if err != nil {
		return err
	}
	if f.Kind == FSErrSync && f.Op > 0 {
		return ErrInjectedFS
	}
	return c.mem.SyncDir(dir)
}

// crashFile interposes on the per-file operations.
type crashFile struct {
	fs *CrashFS
	f  statefile.File
}

func (cf *crashFile) Read(p []byte) (int, error) {
	if cf.fs.Crashed() {
		return 0, ErrCrashed
	}
	return cf.f.Read(p)
}

func (cf *crashFile) Write(p []byte) (int, error) {
	f, err := cf.fs.step("write")
	if err != nil {
		return 0, err
	}
	if f.Op > 0 {
		switch f.Kind {
		case FSErrWrite:
			return 0, ErrInjectedFS
		case FSShortWrite:
			keep := f.Keep
			if keep < 0 {
				keep = 0
			}
			if keep > len(p) {
				keep = len(p)
			}
			n, _ := cf.f.Write(p[:keep])
			return n, ErrInjectedFS
		}
	}
	return cf.f.Write(p)
}

func (cf *crashFile) Sync() error {
	f, err := cf.fs.step("sync")
	if err != nil {
		return err
	}
	if f.Op > 0 && f.Kind == FSErrSync {
		return ErrInjectedFS
	}
	return cf.f.Sync()
}

func (cf *crashFile) Size() (int64, error) {
	if cf.fs.Crashed() {
		return 0, ErrCrashed
	}
	return cf.f.Size()
}

func (cf *crashFile) Close() error {
	if cf.fs.Crashed() {
		return ErrCrashed
	}
	return cf.f.Close()
}
