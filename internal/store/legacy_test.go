package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"xydiff/internal/dom"
	"xydiff/internal/faultfs"
	"xydiff/internal/scrub"
	"xydiff/internal/store/legacytest"
)

// The loader is tested on the directory captured from the per-document
// engine (see package legacytest), copied so that tests may damage it.

// headerLen is a journal record's frame header: length + CRC32-C.
const headerLen = 8

// fixture copies the captured directory and returns the copy.
func fixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	legacytest.Copy(t, dir)
	return dir
}

func load(dir string) ([]Chain, RecoveryStats, error) { return Load(faultfs.OS{}, dir) }

func chainOf(t *testing.T, chains []Chain, id string) Chain {
	t.Helper()
	for _, c := range chains {
		if c.ID == id {
			return c
		}
	}
	t.Fatalf("no chain for %q", id)
	return Chain{}
}

// checkGolden fails t unless each chain is the captured one or, where
// prefix is set, a prefix of it.
func checkGolden(t *testing.T, chains []Chain, prefix bool) {
	t.Helper()
	golden := legacytest.ReadGolden(t, legacytest.GoldenPath())
	for _, c := range chains {
		if got, want := 1+len(c.Deltas), golden.Versions(c.ID); got > want || got < want && !prefix {
			t.Fatalf("%s: %d versions, want %d", c.ID, got, want)
		}
		golden.Check(t, c.ID, "v1", c.Base)
		for i, d := range c.Deltas {
			golden.Check(t, c.ID, fmt.Sprintf("delta%d", i+1), d)
		}
	}
}

func assertCorrupt(t *testing.T, err error, wantFile string) *CorruptError {
	t.Helper()
	if err == nil {
		t.Fatal("damaged data accepted without error")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error does not match ErrCorrupt: %v", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("no *CorruptError in chain: %v", err)
	}
	if ce.File != wantFile {
		t.Fatalf("corrupt file = %q, want %q", ce.File, wantFile)
	}
	return ce
}

// rewrite replaces a fixture file's content.
func rewrite(t *testing.T, path string, mut func([]byte) []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mut(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestJournalTornTailRecoversPrefix loads the captured directory as
// it is: every acknowledged version comes back byte for byte, the torn
// record for "doc" version 5 is skipped, and nothing is written — the
// torn tail is still on disk afterwards.
func TestJournalTornTailRecoversPrefix(t *testing.T) {
	dir := fixture(t)
	journal := filepath.Join(dir, "journal-doc.log")
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	fsys := faultfs.Wrap(faultfs.OS{})
	chains, rec, err := Load(fsys, dir)
	if err != nil {
		t.Fatalf("torn tail refused: %v", err)
	}
	if rec.TornTails != 1 {
		t.Errorf("TornTails = %d, want 1", rec.TornTails)
	}
	if len(chains) != 3 {
		t.Fatalf("loaded %d documents, want 3", len(chains))
	}
	checkGolden(t, chains, false)
	for _, op := range []faultfs.Op{faultfs.OpOpen, faultfs.OpWrite, faultfs.OpTruncate, faultfs.OpRename, faultfs.OpRemove} {
		if n := fsys.Count(op); n != 0 {
			t.Errorf("Load did %d %s operations, want none", n, op)
		}
	}
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("Load changed the journal holding the torn tail")
	}
}

// TestJournalSurvivesAlongsideSnapshot: "doc" comes from its snapshot
// plus the one journal record past it; the journal records the
// snapshot already covers are skipped. Renamed to "zdoc", with its
// journal cut down to the records past the snapshot (what a completed
// checkpoint leaves), the document lists its journal before its
// snapshot directory, and the snapshot must still be read first.
func TestJournalSurvivesAlongsideSnapshot(t *testing.T) {
	chains, rec, err := load(fixture(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := fixture(t)
	for _, mv := range [][2]string{{"doc", "zdoc"}, {"journal-doc.log", "journal-zdoc.log"}} {
		if err := os.Rename(filepath.Join(dir, mv[0]), filepath.Join(dir, mv[1])); err != nil {
			t.Fatal(err)
		}
	}
	rewrite(t, filepath.Join(dir, "journal-zdoc.log"), func(raw []byte) []byte {
		for i := 0; i < 3; i++ { // drop the records for versions 1..3
			raw = raw[headerLen+binary.BigEndian.Uint32(raw[0:4]):]
		}
		return raw
	})
	renamed, _, err := load(dir)
	if err != nil {
		t.Fatalf("document sorting after its journal: %v", err)
	}
	if doc, zdoc := chainOf(t, chains, "doc"), chainOf(t, renamed, "zdoc"); fmt.Sprint(doc.Deltas) != fmt.Sprint(zdoc.Deltas) {
		t.Fatal("renamed document loads a different chain")
	}
	want := RecoveryStats{
		Documents:        3,
		SnapshotVersions: 5, // x/y 2 + doc 3
		JournalRecords:   4, // doc v4 + doc 1 v1..v3
		JournalSkipped:   3, // doc v1..v3, covered by the snapshot
		TornTails:        1,
		JournalBytes:     rec.JournalBytes,
	}
	if rec != want {
		t.Fatalf("recovery = %+v, want %+v", rec, want)
	}
	if got := len(chainOf(t, chains, "doc").Deltas); got != 3 {
		t.Fatalf("doc has %d deltas, want 3", got)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(legacytest.Dir(), "journal-doc_201.log"))
	if err != nil {
		t.Fatal(err)
	}
	n := binary.BigEndian.Uint32(raw[0:4])
	kind, version, body, err := decodePayload(raw[headerLen : headerLen+n])
	if err != nil {
		t.Fatal(err)
	}
	if kind != recordBase || version != 1 {
		t.Fatalf("first record: kind=%d version=%d, want a base record for version 1", kind, version)
	}
	if _, err := dom.ParseString(string(body)); err != nil {
		t.Fatalf("base record body does not parse: %v", err)
	}
	if _, _, _, err := decodePayload([]byte{recordDelta}); err == nil {
		t.Error("payload without a version accepted")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"off", SyncOff}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("String() round trip: %q", got.String())
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestEscapeID(t *testing.T) {
	for name, id := range map[string]string{
		"plain": "plain", "with_2fslash": "with/slash", "dots.and-dash": "dots.and-dash",
		"spaces_20here": "spaces here", "UPPER": "UPPER", "a_5fb": "a_b", "trailing_": "trailing_",
	} {
		if got := unescapeID(name); got != id {
			t.Errorf("unescapeID(%q) = %q, want %q", name, got, id)
		}
	}
}

// The journal "doc 1" carries three records; damage in them is
// refused with the journal's name and the damaged record's offset.
func TestJournalCorruptionTable(t *testing.T) {
	tests := []struct {
		name string
		mut  func(raw []byte) []byte
	}{
		{"bit flip in first payload", func(raw []byte) []byte {
			raw[headerLen+3] ^= 0x40
			return raw
		}},
		{"bit flip in stored crc", func(raw []byte) []byte {
			raw[5] ^= 0x01
			return raw
		}},
		{"zero filled header", func(raw []byte) []byte {
			for i := 0; i < headerLen; i++ {
				raw[i] = 0
			}
			return raw
		}},
		{"absurd length field", func(raw []byte) []byte {
			raw[0], raw[1], raw[2], raw[3] = 0xff, 0xff, 0xff, 0xff
			return raw
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			dir := fixture(t)
			journal := filepath.Join(dir, "journal-doc_201.log")
			rewrite(t, journal, tc.mut)
			_, _, err := load(dir)
			ce := assertCorrupt(t, err, journal)
			if ce.Offset != 0 {
				t.Errorf("offset = %d, want 0 (damage is in the first record)", ce.Offset)
			}
		})
	}
}

func TestJournalMidLogCorruptionReportsOffset(t *testing.T) {
	dir := fixture(t)
	journal := filepath.Join(dir, "journal-doc_201.log")
	var firstLen int64
	rewrite(t, journal, func(raw []byte) []byte {
		// Flip a byte inside the second record's payload; its offset is
		// the end of the first record.
		firstLen = headerLen + int64(binary.BigEndian.Uint32(raw[0:4]))
		raw[firstLen+headerLen+2] ^= 0x10
		return raw
	})
	_, _, err := load(dir)
	ce := assertCorrupt(t, err, journal)
	if ce.Offset != firstLen {
		t.Errorf("offset = %d, want %d (second record)", ce.Offset, firstLen)
	}
}

// The snapshot of "doc" (three versions) damaged file by file: each is
// refused as a whole-file failure naming the file.
func TestSnapshotCorruptionTable(t *testing.T) {
	tests := []struct {
		name string
		file string
		mut  func(raw []byte) []byte
	}{
		{"bit flipped base version", "v1.xml", func(raw []byte) []byte {
			raw[1] ^= 0x20 // <list... -> mangled tag
			return raw
		}},
		{"zero filled delta", "delta-0001.xml", func(raw []byte) []byte {
			for i := range raw {
				raw[i] = 0
			}
			return raw
		}},
		{"truncated delta", "delta-0001.xml", func(raw []byte) []byte {
			return raw[:len(raw)/2]
		}},
		{"truncated base version", "v1.xml", func(raw []byte) []byte {
			return raw[:len(raw)/2]
		}},
		{"garbage version counter", "versions", func(raw []byte) []byte {
			return []byte("NaN")
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			dir := fixture(t)
			target := filepath.Join(dir, "doc", tc.file)
			rewrite(t, target, tc.mut)
			_, _, err := load(dir)
			ce := assertCorrupt(t, err, target)
			if ce.Offset != -1 {
				t.Errorf("offset = %d, want -1 (whole-file failure)", ce.Offset)
			}
		})
	}
}

func TestLoadCorruptVersionCounter(t *testing.T) {
	for _, bad := range []string{"", "zero", "-3", "0"} {
		dir := fixture(t)
		rewrite(t, filepath.Join(dir, "x_2fy", "versions"), func([]byte) []byte { return []byte(bad) })
		if _, _, err := load(dir); err == nil {
			t.Errorf("counter %q accepted", bad)
		}
	}
}

func TestLoadMissingBaseVersion(t *testing.T) {
	dir := fixture(t)
	if err := os.Remove(filepath.Join(dir, "x_2fy", "v1.xml")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := load(dir); err == nil {
		t.Error("missing v1.xml accepted")
	}
}

func TestLoadMissingDelta(t *testing.T) {
	dir := fixture(t)
	if err := os.Remove(filepath.Join(dir, "x_2fy", "delta-0001.xml")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := load(dir); err == nil {
		t.Error("missing delta accepted")
	}
}

func TestLoadCorruptDelta(t *testing.T) {
	dir := fixture(t)
	rewrite(t, filepath.Join(dir, "x_2fy", "delta-0001.xml"), func([]byte) []byte { return []byte("not xml at all") })
	if _, _, err := load(dir); err == nil {
		t.Error("corrupt delta accepted")
	}
}

func TestLoadInapplicableDelta(t *testing.T) {
	dir := fixture(t)
	// A syntactically valid delta that does not apply to v1.
	rewrite(t, filepath.Join(dir, "x_2fy", "delta-0001.xml"), func([]byte) []byte {
		return []byte(`<delta><update xid="999"><old>x</old><new>y</new></update></delta>`)
	})
	if _, _, err := load(dir); err == nil {
		t.Error("inapplicable delta accepted")
	}
}

func TestLoadCorruptBaseDocument(t *testing.T) {
	dir := fixture(t)
	rewrite(t, filepath.Join(dir, "x_2fy", "v1.xml"), func([]byte) []byte { return []byte(`<r><unclosed>`) })
	if _, _, err := load(dir); err == nil {
		t.Error("corrupt base accepted")
	}
}

// Stray files and quarantined snapshots are not documents.
func TestLoadIgnoresStrayFiles(t *testing.T) {
	dir := fixture(t)
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not a document dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "gone"+scrub.QuarantineSuffix), 0o755); err != nil {
		t.Fatal(err)
	}
	chains, _, err := load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 3 {
		t.Fatalf("stray files changed what loads: %d documents", len(chains))
	}
	checkGolden(t, chains, false)
}

func TestLoadMissingDir(t *testing.T) {
	if _, _, err := load(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing directory accepted")
	}
}

// TestCrashTornWrite cuts the journal of "doc 1" at every byte, as a
// crash mid-append leaves it: each cut loads, with the versions of the
// complete records and the cut-short record counted as a torn tail.
func TestCrashTornWrite(t *testing.T) {
	dir := fixture(t)
	journal := filepath.Join(dir, "journal-doc_201.log")
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int // offset just past each record
	for off := 0; off < len(raw); {
		off += headerLen + int(binary.BigEndian.Uint32(raw[off:off+4]))
		ends = append(ends, off)
	}
	for cut := 0; cut <= len(raw); cut++ {
		if err := os.WriteFile(journal, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		complete, torn := 0, 0
		for _, end := range ends {
			if end <= cut {
				complete++
			}
		}
		if complete == 0 || ends[complete-1] != cut {
			torn = 1
		}
		if cut == 0 {
			torn = 0
		}
		chains, rec, err := load(dir)
		if err != nil {
			t.Fatalf("journal cut at %d: %v", cut, err)
		}
		if rec.TornTails != 1+torn { // journal-doc.log ends torn too
			t.Fatalf("journal cut at %d: TornTails = %d, want %d", cut, rec.TornTails, 1+torn)
		}
		checkGolden(t, chains, true)
		got := 0
		for _, c := range chains {
			if c.ID == "doc 1" {
				got = 1 + len(c.Deltas)
			}
		}
		if got != complete {
			t.Fatalf("journal cut at %d: %d versions of doc 1, want %d", cut, got, complete)
		}
	}
}

// TestCrashMatrix loads what a crash at each step of a checkpoint
// leaves beside the captured directory: temporary files never renamed
// into place, a snapshot whose version counter was never written, and
// a journal not yet retired (the captured state itself). Every
// acknowledged version still loads.
func TestCrashMatrix(t *testing.T) {
	for _, tc := range []struct {
		name  string
		crash func(t *testing.T, dir string)
	}{
		{"journal not retired", func(t *testing.T, dir string) {}},
		{"temp files not renamed", func(t *testing.T, dir string) {
			for _, f := range []string{"doc/.v1.xml.tmp123", "doc/.versions.tmp9", "x_2fy/.delta-0002.xml.tmp7"} {
				if err := os.WriteFile(filepath.Join(dir, f), []byte("<partial"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"version counter not renamed", func(t *testing.T, dir string) {
			// The journal still holds every version of "doc".
			if err := os.Remove(filepath.Join(dir, "doc", "versions")); err != nil {
				t.Fatal(err)
			}
		}},
		{"snapshot directory only created", func(t *testing.T, dir string) {
			if err := os.Mkdir(filepath.Join(dir, "doc_201"), 0o755); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := fixture(t)
			tc.crash(t, dir)
			chains, _, err := load(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(chains) != 3 {
				t.Fatalf("loaded %d documents, want 3", len(chains))
			}
			checkGolden(t, chains, false)
		})
	}
}
