package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func buildSample(t *testing.T) []byte {
	t.Helper()
	b := NewBuilder(0xDEADBEEF, 1234)
	e := b.Section("alpha")
	e.U8(7)
	e.Bool(true)
	e.U16(512)
	e.U32(1 << 20)
	e.U64(1 << 40)
	e.I64(-42)
	e.Int(99)
	e.F64(3.25)
	e.Bytes([]byte("payload"))
	e.String("name")
	e.I64s([]int64{1, -2, 3})
	b.Section("beta").U64(777)
	return b.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := buildSample(t)
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.ConfigHash != 0xDEADBEEF || f.Cycle != 1234 || f.Version != Version {
		t.Fatalf("header mismatch: %+v", f)
	}
	if got := f.Sections(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("sections = %v", got)
	}
	d, err := f.Section("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if v := d.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if !d.Bool() {
		t.Fatal("Bool = false")
	}
	if v := d.U16(); v != 512 {
		t.Fatalf("U16 = %d", v)
	}
	if v := d.U32(); v != 1<<20 {
		t.Fatalf("U32 = %d", v)
	}
	if v := d.U64(); v != 1<<40 {
		t.Fatalf("U64 = %d", v)
	}
	if v := d.I64(); v != -42 {
		t.Fatalf("I64 = %d", v)
	}
	if v := d.Int(); v != 99 {
		t.Fatalf("Int = %d", v)
	}
	if v := d.F64(); v != 3.25 {
		t.Fatalf("F64 = %v", v)
	}
	if v := d.Bytes(); !bytes.Equal(v, []byte("payload")) {
		t.Fatalf("Bytes = %q", v)
	}
	if v := d.String(); v != "name" {
		t.Fatalf("String = %q", v)
	}
	if v := d.I64s(); len(v) != 3 || v[0] != 1 || v[1] != -2 || v[2] != 3 {
		t.Fatalf("I64s = %v", v)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Section("gamma"); err == nil {
		t.Fatal("missing section did not error")
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	d.U64() // truncated
	if d.Err() == nil {
		t.Fatal("truncated read did not set error")
	}
	if v := d.U32(); v != 0 {
		t.Fatalf("post-error read = %d, want 0", v)
	}
	if err := d.Close(); err == nil {
		t.Fatal("Close after error returned nil")
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3})
	d.U8()
	if err := d.Close(); err == nil {
		t.Fatal("trailing bytes not detected")
	}
}

func TestCorruptionDetected(t *testing.T) {
	data := buildSample(t)
	// Every single-bit flip must fail parsing or leave the header intact
	// with matching CRCs (impossible for CRC32 on a single flip), so just
	// assert a sweep of flips all error.
	for i := 0; i < len(data); i++ {
		for bit := 0; bit < 8; bit += 3 {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << bit
			if _, err := Parse(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d went undetected", i, bit)
			}
		}
	}
	// Truncations at every length must fail too.
	for n := 0; n < len(data); n++ {
		if _, err := Parse(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
}

// TestRejectsOldVersion requires an otherwise intact image written under
// an earlier format version to be refused: its section layouts differ.
func TestRejectsOldVersion(t *testing.T) {
	data := buildSample(t)
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(body[len(magic):], Version-1)
	data = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	_, err := Parse(data)
	if err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("Parse of a version-%d image: err = %v, want unsupported version", Version-1, err)
	}
}

func TestWriteLoadLatest(t *testing.T) {
	dir := t.TempDir()
	for _, cycle := range []int64{100, 200, 300} {
		b := NewBuilder(1, cycle)
		b.Section("s").I64(cycle)
		if _, err := WriteFile(dir, cycle, b.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	f, path, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if f.Cycle != 300 || filepath.Base(path) != FileName(300) {
		t.Fatalf("latest = cycle %d from %s", f.Cycle, path)
	}
}

func TestLoadLatestFallsBackPastCorrupt(t *testing.T) {
	dir := t.TempDir()
	for _, cycle := range []int64{100, 200} {
		b := NewBuilder(1, cycle)
		b.Section("s").I64(cycle)
		if _, err := WriteFile(dir, cycle, b.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the newest checkpoint mid-file.
	newest := filepath.Join(dir, FileName(200))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	f, path, err := LoadLatest(dir)
	if err != nil {
		t.Fatalf("no fallback: %v", err)
	}
	if f.Cycle != 100 {
		t.Fatalf("fell back to cycle %d from %s, want 100", f.Cycle, path)
	}
	// With every checkpoint corrupt, LoadLatest must error (not panic).
	older := filepath.Join(dir, FileName(100))
	if err := os.WriteFile(older, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadLatest(dir); err == nil {
		t.Fatal("all-corrupt directory did not error")
	}
}

func TestLoadLatestReportRecordsSkips(t *testing.T) {
	dir := t.TempDir()
	for _, cycle := range []int64{100, 200, 300} {
		b := NewBuilder(1, cycle)
		b.Section("s").I64(cycle)
		if _, err := WriteFile(dir, cycle, b.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the newest checkpoint and corrupt the middle one outright.
	newest := filepath.Join(dir, FileName(300))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, FileName(200)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, _, skipped, err := LoadLatestReport(dir)
	if err != nil {
		t.Fatal(err)
	}
	if f.Cycle != 100 {
		t.Fatalf("restored cycle %d, want 100", f.Cycle)
	}
	if len(skipped) != 2 || skipped[0].Name != FileName(300) || skipped[1].Name != FileName(200) {
		t.Fatalf("skipped = %+v, want the torn 300 then the corrupt 200", skipped)
	}
	for _, s := range skipped {
		if s.Err == nil {
			t.Fatalf("skip %s carries no error", s.Name)
		}
	}
	// The skips are recorded as comments in the manifest sidecar...
	man, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{FileName(300), FileName(200)} {
		if !bytes.Contains(man, []byte("# skipped "+name)) {
			t.Errorf("manifest lacks skip note for %s:\n%s", name, man)
		}
	}
	// ...which the manifest reader ignores, so a second load still finds
	// the valid checkpoint and the notes are rewritten, not accumulated.
	if _, _, _, err := LoadLatestReport(dir); err != nil {
		t.Fatalf("manifest with skip notes broke loading: %v", err)
	}
	man2, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bytes.Count(man2, []byte("# skipped")), 2; got != want {
		t.Errorf("after reload, %d skip notes, want %d (rewritten, not appended):\n%s", got, want, man2)
	}
}

func TestLoadLatestWithoutManifest(t *testing.T) {
	dir := t.TempDir()
	b := NewBuilder(1, 42)
	b.Section("s").I64(42)
	if _, err := WriteFile(dir, 42, b.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	f, _, err := LoadLatest(dir)
	if err != nil || f.Cycle != 42 {
		t.Fatalf("directory-scan fallback failed: %v, %+v", err, f)
	}
}

func TestPrune(t *testing.T) {
	dir := t.TempDir()
	for _, cycle := range []int64{1, 2, 3, 4, 5} {
		b := NewBuilder(1, cycle)
		b.Section("s").I64(cycle)
		if _, err := WriteFile(dir, cycle, b.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	Prune(dir, 2)
	f, _, err := LoadLatest(dir)
	if err != nil || f.Cycle != 5 {
		t.Fatalf("latest after prune: %v, %+v", err, f)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for _, ent := range entries {
		if cycleOf(ent.Name()) >= 0 {
			kept++
		}
	}
	if kept != 2 {
		t.Fatalf("prune kept %d checkpoints, want 2", kept)
	}
}
