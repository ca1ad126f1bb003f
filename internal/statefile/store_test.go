package statefile

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func mustOpen(t *testing.T, fsys FS, dir string) (*Store, Recovery) {
	t.Helper()
	s, rec, err := Open(fsys, dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, rec
}

// plant replaces name's durable contents with buf.
func plant(t *testing.T, mem *MemFS, name string, buf []byte) {
	t.Helper()
	f, err := mem.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(buf)
	f.Sync()
	f.Close()
}

// parentFrame frames payload the way the journal-keeping release
// framed its snapshot, spelled out here apart from Store.Write.
func parentFrame(payload []byte) []byte {
	hdr := make([]byte, frameHeader)
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint64(hdr[4:12], checksum(payload))
	return append(hdr, payload...)
}

func TestEmptyStoreRoundTrip(t *testing.T) {
	mem := NewMemFS()
	s, rec := mustOpen(t, mem, "state")
	if rec.State != nil || rec.Corrupt {
		t.Fatalf("fresh store recovered something: %+v", rec)
	}
	if err := s.Write([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Write([]byte("two")); err != nil {
		t.Fatal(err)
	}
	_, rec = mustOpen(t, mem, "state")
	if string(rec.State) != "two" || rec.Corrupt {
		t.Fatalf("reopen: %+v", rec)
	}
	if names, _ := mem.ReadDir("state"); strings.Join(names, ",") != "snapshot" {
		t.Fatalf("directory after two writes: %v", names)
	}
}

func TestLeftoverSnapshotTmpDiscarded(t *testing.T) {
	mem := NewMemFS()
	s, _ := mustOpen(t, mem, "state")
	if err := s.Write([]byte("STATE")); err != nil {
		t.Fatal(err)
	}
	plant(t, mem, "state/snapshot.tmp", []byte("half a snapshot"))

	_, rec := mustOpen(t, mem, "state")
	if string(rec.State) != "STATE" {
		t.Fatalf("tmp snapshot leaked into recovery: %+v", rec)
	}
	if _, ok := mem.Contents("state/snapshot.tmp"); ok {
		t.Fatal("snapshot.tmp survived Open")
	}
}

func TestAbsurdLengthPrefixIsCorruption(t *testing.T) {
	mem := NewMemFS()
	s, _ := mustOpen(t, mem, "state")
	s.Write([]byte("ok"))
	buf, _ := mem.Contents("state/snapshot")
	binary.BigEndian.PutUint32(buf[0:4], 1<<31-1)
	plant(t, mem, "state/snapshot", buf)

	_, rec := mustOpen(t, mem, "state")
	if !rec.Corrupt || rec.State != nil {
		t.Fatalf("absurd length not treated as corruption: %+v", rec)
	}
}

// TestCorruptSnapshotIsReported: a flipped payload byte fails the
// checksum, and a frame whose checksum holds over an envelope that
// does not decode is corrupt too. Either way the store starts without
// state, and the next Write replaces the damaged file.
func TestCorruptSnapshotIsReported(t *testing.T) {
	mem := NewMemFS()
	s, _ := mustOpen(t, mem, "state")
	s.Write([]byte("STATE"))
	good, _ := mem.Contents("state/snapshot")
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-2] ^= 0xff

	for name, buf := range map[string][]byte{
		"flipped byte":    flipped,
		"not an envelope": parentFrame([]byte(`{"state":42}`)),
		"short":           good[:frameHeader-1],
	} {
		plant(t, mem, "state/snapshot", buf)
		s, rec := mustOpen(t, mem, "state")
		if !rec.Corrupt || rec.State != nil {
			t.Fatalf("%s: corruption not reported: %+v", name, rec)
		}
		if err := s.Write([]byte("fresh")); err != nil {
			t.Fatal(err)
		}
		if _, rec = mustOpen(t, mem, "state"); rec.Corrupt || string(rec.State) != "fresh" {
			t.Fatalf("%s: write after corruption: %+v", name, rec)
		}
	}
}

// TestStaleJournalGenerationsRemoved: a directory the journal-keeping
// release drained holds its snapshot, with "gen" and "unix" members,
// beside an empty journal.<gen>. Open restores the snapshot's state
// and deletes the empty journal.
func TestStaleJournalGenerationsRemoved(t *testing.T) {
	mem := NewMemFS()
	payload, err := json.Marshal(map[string]any{"gen": 4, "unix": 1700000000000000000, "state": []byte("SNAP")})
	if err != nil {
		t.Fatal(err)
	}
	plant(t, mem, "state/snapshot", parentFrame(payload))
	plant(t, mem, "state/journal.4", nil)
	plant(t, mem, "state/journal.x", []byte("not a generation"))

	_, rec := mustOpen(t, mem, "state")
	if string(rec.State) != "SNAP" || rec.Corrupt {
		t.Fatalf("parent snapshot: %+v", rec)
	}
	if names, _ := mem.ReadDir("state"); strings.Join(names, ",") != "journal.x,snapshot" {
		t.Fatalf("directory after Open: %v", names)
	}
}

// TestNonEmptyJournalRefused: a journal with records holds
// acknowledged decisions no Open can replay, so Open fails, names the
// file and leaves it in place.
func TestNonEmptyJournalRefused(t *testing.T) {
	mem := NewMemFS()
	plant(t, mem, "state/journal.3", parentFrame([]byte(`{"fp":"a","state":"quarantined","trips":1}`)))
	_, _, err := Open(mem, "state")
	if err == nil || !strings.Contains(err.Error(), "state/journal.3") {
		t.Fatalf("Open over a non-empty journal: %v", err)
	}
	if _, ok := mem.Contents("state/journal.3"); !ok {
		t.Fatal("the refused journal was removed")
	}
}

// TestConcurrentWritesNeverTear: Writes from several goroutines share
// snapshot.tmp, so they must not interleave. States of different
// lengths make an interleaving visible as a corrupt frame.
func TestConcurrentWritesNeverTear(t *testing.T) {
	mem := NewMemFS()
	s, _ := mustOpen(t, mem, "state")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := s.Write([]byte(strings.Repeat(strconv.Itoa(w), 1+(i*7+w*13)%40))); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, rec := mustOpen(t, mem, "state"); rec.Corrupt || rec.State == nil {
		t.Fatalf("after concurrent writes: %+v", rec)
	}
}

// TestOSFSRoundTrip exercises the production FS against a real
// directory: write, replace, reopen.
func TestOSFSRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	s, _, err := Open(OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, state := range []string{"first", "second", "STATE"} {
		if err := s.Write([]byte(state)); err != nil {
			t.Fatal(err)
		}
	}
	_, rec, err := Open(OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.State) != "STATE" || rec.Corrupt {
		t.Fatalf("osfs recovery: %+v", rec)
	}
	if names, _ := OS().ReadDir(dir); strings.Join(names, ",") != "snapshot" {
		t.Fatalf("directory after writes: %v", names)
	}
}
