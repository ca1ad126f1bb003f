package statefile

// This file is the one place in the module allowed to touch the
// ambient os filesystem API: everything else goes through the FS
// interface so the crash-chaos harness can interpose. The xqvet
// fsdiscipline check enforces the confinement.

import (
	"io/fs"
	"os"
)

// osFS adapts the ambient os package to FS.
type osFS struct{}

// OS returns the real-filesystem FS used in production (cmd/xqindepd
// -state-dir). Tests use MemFS, usually behind faultinject.CrashFS.
func OS() FS { return osFS{} }

type osFile struct{ f *os.File }

func (o osFile) Read(p []byte) (int, error)  { return o.f.Read(p) }
func (o osFile) Write(p []byte) (int, error) { return o.f.Write(p) }
func (o osFile) Close() error                { return o.f.Close() }
func (o osFile) Sync() error                 { return o.f.Sync() }

func (o osFile) Size() (int64, error) {
	st, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f: f}, nil
}

func (osFS) Rename(oldname, newname string) error        { return os.Rename(oldname, newname) }
func (osFS) Remove(name string) error                    { return os.Remove(name) }
func (osFS) MkdirAll(dir string, perm fs.FileMode) error { return os.MkdirAll(dir, perm) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names, nil
}

// SyncDir fsyncs the directory so renames and creations inside it are
// durable. Platforms where directories reject Sync report the error;
// callers treat SyncDir failures like any other fsync failure.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
