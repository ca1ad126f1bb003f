package statefile

import (
	"bytes"
	"path"
	"strconv"
	"strings"
	"testing"
)

func TestSpoolWriteAndReopen(t *testing.T) {
	mem := NewMemFS()
	sp, err := OpenSpool(mem, "state", "incidents.jsonl", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Write([]byte("{\"a\":1}\n")); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen appends; the earlier record survives.
	sp2, err := OpenSpool(mem, "state", "incidents.jsonl", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp2.Write([]byte("{\"b\":2}\n")); err != nil {
		t.Fatal(err)
	}
	sp2.Close()
	buf, _ := mem.Contents("state/incidents.jsonl")
	if string(buf) != "{\"a\":1}\n{\"b\":2}\n" {
		t.Fatalf("spool contents: %q", buf)
	}
}

func TestSpoolRotation(t *testing.T) {
	mem := NewMemFS()
	// maxBytes is clamped to 4 KiB; write 1 KiB records so each file
	// holds 4 and 12 records rotate twice, short of spoolKeep.
	sp, err := OpenSpool(mem, "state", "sp", 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(i int) []byte {
		return append(bytes.Repeat([]byte{byte('a' + i)}, 1023), '\n')
	}
	for i := 0; i < 12; i++ {
		if _, err := sp.Write(rec(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	st := sp.Stats()
	if st.Writes != 12 || st.Rotations != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	names, _ := mem.ReadDir("state")
	got := strings.Join(names, ",")
	if got != "sp,sp.1,sp.2" {
		t.Fatalf("chain: %s\n%s", got, mem.Dump())
	}
	// Rotated files were fsynced on rotation: fully durable.
	durable, _ := mem.Durable("state/sp.1")
	if len(durable) != 4<<10 {
		t.Fatalf("sp.1 durable bytes: %d", len(durable))
	}
	// Newest record is in the current file.
	cur, _ := mem.Contents("state/sp")
	if !bytes.HasPrefix(cur, []byte("iii")) {
		t.Fatalf("current head: %q", cur[:8])
	}
}

func TestSpoolDropsPastKeep(t *testing.T) {
	mem := NewMemFS()
	sp, err := OpenSpool(mem, "state", "sp", 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(i int) []byte {
		return append(bytes.Repeat([]byte{byte('a' + i)}, 2047), '\n')
	}
	// Two records per file: spoolKeep+2 rotations, so the two oldest
	// rotated files are dropped.
	for i := 0; i < 2*(spoolKeep+2)+1; i++ {
		if _, err := sp.Write(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	sp.Close()
	want := []string{"sp"}
	for i := 1; i <= spoolKeep; i++ {
		want = append(want, "sp."+strconv.Itoa(i))
	}
	names, _ := mem.ReadDir("state")
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("chain with spoolKeep=%d: %v", spoolKeep, names)
	}
	// The oldest kept file starts with the fifth record: the first four
	// went with the two dropped files.
	oldest, _ := mem.Contents("state/sp." + strconv.Itoa(spoolKeep))
	if !bytes.HasPrefix(oldest, rec(4)) {
		t.Fatalf("oldest kept file starts %q", oldest[:8])
	}
}

func TestSpoolOversizedRecordStillLands(t *testing.T) {
	mem := NewMemFS()
	sp, err := OpenSpool(mem, "state", "sp", 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Write([]byte("small\n")); err != nil {
		t.Fatal(err)
	}
	big := append(bytes.Repeat([]byte("x"), 8<<10), '\n')
	if _, err := sp.Write(big); err != nil {
		t.Fatal(err)
	}
	st := sp.Stats()
	if st.Rotations != 1 || st.CurrentBytes != int64(len(big)) {
		t.Fatalf("oversized handling: %+v", st)
	}
	sp.Close()
}

func TestSpoolFlushMakesDurable(t *testing.T) {
	mem := NewMemFS()
	sp, err := OpenSpool(mem, "state", "sp", 0)
	if err != nil {
		t.Fatal(err)
	}
	sp.Write([]byte("record\n"))
	if d, _ := mem.Durable("state/sp"); len(d) != 0 {
		t.Fatalf("durable before flush: %q", d)
	}
	if err := sp.Flush(); err != nil {
		t.Fatal(err)
	}
	if d, _ := mem.Durable("state/sp"); string(d) != "record\n" {
		t.Fatalf("durable after flush: %q", d)
	}
	if st := sp.Stats(); st.Flushes != 1 {
		t.Fatalf("flush counter: %+v", st)
	}
	sp.Close()
}

// TestSpoolRotationFailureDoesNotWedge: a rotation that fails midway
// must leave the spool writable once the fault is gone. It runs on
// OS(), because MemFS's Close is a no-op and cannot show a write
// through a closed handle.
func TestSpoolRotationFailureDoesNotWedge(t *testing.T) {
	fsys, dir := OS(), t.TempDir()
	sp, err := OpenSpool(fsys, dir, "sp", 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	rec := append(bytes.Repeat([]byte("r"), 1023), '\n')
	for i := 0; i < 4; i++ { // fills the current file to the cap
		if _, err := sp.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	// A non-empty directory where the rotation drops its oldest file
	// fails the next rotation.
	blocker := path.Join(dir, "sp."+strconv.Itoa(spoolKeep))
	if err := fsys.MkdirAll(path.Join(blocker, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Write(rec); err == nil {
		t.Fatal("rotation over a non-empty directory succeeded")
	}
	if err := fsys.Remove(path.Join(blocker, "x")); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sp.Write(rec); err != nil {
			t.Fatalf("write %d after the fault cleared: %v", i, err)
		}
	}
	if err := sp.Flush(); err != nil {
		t.Fatalf("flush after the fault cleared: %v", err)
	}
	if st := sp.Stats(); st.WriteErrors != 1 || st.Rotations != 1 || st.Writes != 7 {
		t.Fatalf("stats: %+v", st)
	}
}
