package statefile

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
	"sync"
)

// MemFS is the in-memory FS used by tests and the crash-chaos
// harness. It models the durability semantics the state file's
// rename assumes of a journaling filesystem:
//
//   - metadata operations (create, rename, remove) are atomic and
//     durable immediately;
//   - file data is durable only up to the last successful Sync; a
//     Crash may keep any prefix of the unsynced tail, which is how the
//     harness manufactures torn writes.
//
// All methods are safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]bool
}

type memFile struct {
	data   []byte
	synced int // bytes durable across a Crash
}

// NewMemFS returns an empty filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: map[string]*memFile{}, dirs: map[string]bool{".": true}}
}

// Crash simulates a kill-9: for every file, the unsynced tail is cut
// down to keep(name, unsyncedLen) bytes (clamped to [0, unsyncedLen]),
// modelling a power cut that persisted an arbitrary prefix of the
// buffered data. A nil keep drops every unsynced byte. Open handles
// are NOT invalidated — the harness layers faultinject.CrashFS on top
// to fail post-crash operations.
func (m *MemFS) Crash(keep func(name string, unsynced int) int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, f := range m.files {
		unsynced := len(f.data) - f.synced
		if unsynced <= 0 {
			continue
		}
		k := 0
		if keep != nil {
			k = keep(name, unsynced)
		}
		if k < 0 {
			k = 0
		}
		if k > unsynced {
			k = unsynced
		}
		f.data = f.data[:f.synced+k]
		f.synced = len(f.data)
	}
}

// Durable returns the durable contents of name (what a post-crash
// reboot would read), and whether the file exists.
func (m *MemFS) Durable(name string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[path.Clean(name)]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), f.data[:f.synced]...), true
}

// Contents returns the current (possibly unsynced) contents of name.
func (m *MemFS) Contents(name string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[path.Clean(name)]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), f.data...), true
}

type memHandle struct {
	fs    *MemFS
	name  string
	f     *memFile
	flag  int
	off   int64 // read offset; writes honour O_APPEND
	wrOff int64 // write offset when not appending
}

func (m *MemFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	name = path.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		f = &memFile{}
		m.files[name] = f
	} else if flag&os.O_TRUNC != 0 {
		f.data = nil
		f.synced = 0
	}
	return &memHandle{fs: m, name: name, f: f, flag: flag}, nil
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.off >= int64(len(h.f.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[h.off:])
	h.off += int64(n)
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.flag&(os.O_WRONLY|os.O_RDWR) == 0 {
		return 0, &fs.PathError{Op: "write", Path: h.name, Err: fs.ErrInvalid}
	}
	if h.flag&os.O_APPEND != 0 {
		h.f.data = append(h.f.data, p...)
		return len(p), nil
	}
	end := h.wrOff + int64(len(p))
	for int64(len(h.f.data)) < end {
		h.f.data = append(h.f.data, 0)
	}
	copy(h.f.data[h.wrOff:end], p)
	h.wrOff = end
	return len(p), nil
}

func (h *memHandle) Close() error { return nil }

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.f.synced = len(h.f.data)
	return nil
}

func (h *memHandle) Size() (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	return int64(len(h.f.data)), nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	oldname, newname = path.Clean(oldname), path.Clean(newname)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	m.files[newname] = f
	delete(m.files, oldname)
	return nil
}

func (m *MemFS) Remove(name string) error {
	name = path.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (m *MemFS) MkdirAll(dir string, perm fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirs[path.Clean(dir)] = true
	return nil
}

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	dir = path.Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := map[string]bool{}
	var names []string
	for name := range m.files {
		d, base := path.Split(name)
		if path.Clean(d) != dir {
			continue
		}
		if !seen[base] {
			seen[base] = true
			names = append(names, base)
		}
	}
	for d := range m.dirs {
		parent, base := path.Split(d)
		if path.Clean(parent) == dir && !seen[base] && base != "" {
			seen[base] = true
			names = append(names, base)
		}
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir is a no-op: MemFS metadata is modelled durable (see the
// type comment). It still participates in the crash harness's
// operation counting through CrashFS.
func (m *MemFS) SyncDir(dir string) error { return nil }

// Dump renders the filesystem for test failure messages.
func (m *MemFS) Dump() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		f := m.files[n]
		fmt.Fprintf(&b, "%s: %d bytes (%d synced)\n", n, len(f.data), f.synced)
	}
	return b.String()
}
