package statefile

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path"
	"strconv"
	"strings"
	"sync"
)

// The state file is one frame, independent of its content:
//
//	| 4-byte big-endian payload length | 8-byte big-endian fnv64a(payload) | payload |
//
// whose payload is the JSON envelope {"state": <the caller's bytes>}.
// The release that kept a journal beside this file wrote the same
// frame with two more envelope members, "gen" and "unix"; decoding
// ignores them, so a directory that release drained restores as is.
const frameHeader = 4 + 8

const (
	stateName  = "snapshot"
	tmpName    = "snapshot.tmp"
	journalPfx = "journal."
)

type envelope struct {
	State []byte `json:"state"`
}

func checksum(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

// Store is a state directory's one state file:
//
//	<dir>/snapshot       the state of the last completed Write
//	<dir>/snapshot.tmp   a Write in flight (removed by Open)
//
// Every Write replaces the whole state, so a Write that succeeds also
// carries whatever an earlier failed Write was meant to record. Safe
// for concurrent use; concurrent Writes land in some order, and a
// caller that needs the file to only move forward serializes them.
type Store struct {
	fsys FS
	dir  string
	mu   sync.Mutex
}

// Recovery is what Open read back.
type Recovery struct {
	// State is the state of the last completed Write, or of a Write
	// attempted after it; nil when the directory holds no state file
	// or it is corrupt.
	State []byte
	// Corrupt reports a state file whose frame or envelope does not
	// check out. Writes never tear the file under the crash model, so
	// this is storage damage; the caller starts without the state.
	Corrupt bool
}

// Open mounts (creating if necessary) the state directory dir and
// reads its state file. It removes a leftover snapshot.tmp and the
// empty journal.<gen> files the journal-keeping release leaves after a
// drain; both removals are safe to repeat, so a crash during Open loses
// nothing. A non-empty journal holds acknowledged records this release
// cannot replay, so Open refuses the directory and names the file.
func Open(fsys FS, dir string) (*Store, Recovery, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("statefile: mkdir %s: %w", dir, err)
	}
	if err := fsys.Remove(path.Join(dir, tmpName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, Recovery{}, fmt.Errorf("statefile: clear %s: %w", tmpName, err)
	}
	if err := removeEmptyJournals(fsys, dir); err != nil {
		return nil, Recovery{}, err
	}
	rec, err := readState(fsys, path.Join(dir, stateName))
	if err != nil {
		return nil, Recovery{}, err
	}
	return &Store{fsys: fsys, dir: dir}, rec, nil
}

// removeEmptyJournals deletes every empty journal.<gen> in dir and
// fails on the first non-empty one.
func removeEmptyJournals(fsys FS, dir string) error {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("statefile: list %s: %w", dir, err)
	}
	for _, n := range names {
		gen, ok := strings.CutPrefix(n, journalPfx)
		if !ok {
			continue
		}
		if _, perr := strconv.ParseUint(gen, 10, 64); perr != nil {
			continue
		}
		name := path.Join(dir, n)
		f, err := fsys.OpenFile(name, os.O_RDONLY, 0)
		if err != nil {
			return fmt.Errorf("statefile: open %s: %w", name, err)
		}
		size, serr := f.Size()
		cerr := f.Close()
		if serr != nil || cerr != nil {
			return fmt.Errorf("statefile: size of %s: %w", name, errors.Join(serr, cerr))
		}
		if size > 0 {
			return fmt.Errorf("statefile: %s holds %d bytes of journal records this release cannot replay; drain the directory with the release that wrote it, or remove the file to drop those records", name, size)
		}
		if err := fsys.Remove(name); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("statefile: remove %s: %w", name, err)
		}
	}
	return nil
}

// readState loads and checks the state file.
func readState(fsys FS, name string) (Recovery, error) {
	f, err := fsys.OpenFile(name, os.O_RDONLY, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return Recovery{}, nil
	}
	if err != nil {
		return Recovery{}, fmt.Errorf("statefile: open %s: %w", name, err)
	}
	buf, rerr := io.ReadAll(f)
	cerr := f.Close()
	if rerr != nil || cerr != nil {
		return Recovery{}, fmt.Errorf("statefile: read %s: %w", name, errors.Join(rerr, cerr))
	}
	var env envelope
	if len(buf) < frameHeader ||
		uint64(binary.BigEndian.Uint32(buf[0:4])) != uint64(len(buf)-frameHeader) ||
		binary.BigEndian.Uint64(buf[4:frameHeader]) != checksum(buf[frameHeader:]) ||
		json.Unmarshal(buf[frameHeader:], &env) != nil {
		return Recovery{Corrupt: true}, nil
	}
	return Recovery{State: env.State}, nil
}

// Write replaces the state file with state: write snapshot.tmp, fsync
// it, rename it over snapshot, fsync the directory. It returns nil only
// once state is durable. After an error the file holds the state of
// the last completed Write or of one attempted after it.
func (s *Store) Write(state []byte) error {
	payload, err := json.Marshal(envelope{State: state})
	if err != nil {
		return fmt.Errorf("statefile: marshal state: %w", err)
	}
	frame := make([]byte, frameHeader, frameHeader+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint64(frame[4:frameHeader], checksum(payload))
	frame = append(frame, payload...)

	s.mu.Lock()
	defer s.mu.Unlock()
	tmp := path.Join(s.dir, tmpName)
	f, err := s.fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("statefile: create %s: %w", tmp, err)
	}
	_, err = f.Write(frame)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("statefile: write %s: %w", tmp, err)
	}
	if err := s.fsys.Rename(tmp, path.Join(s.dir, stateName)); err != nil {
		return fmt.Errorf("statefile: commit state: %w", err)
	}
	if err := s.fsys.SyncDir(s.dir); err != nil {
		return fmt.Errorf("statefile: sync %s: %w", s.dir, err)
	}
	return nil
}
