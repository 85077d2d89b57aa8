package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"xydiff/internal/delta"
	"xydiff/internal/dom"
	"xydiff/internal/faultfs"
	"xydiff/internal/scrub"
	"xydiff/internal/xid"
)

// The per-document layout that came before vstore. Under dir/:
//
//	<escaped id>/v1.xml          base version (canonical XIDs)
//	<escaped id>/delta-0001.xml  ... delta-(versions-1).xml
//	<escaped id>/latest.xml      copy of the snapshot's latest version (not read)
//	<escaped id>/versions        snapshot version counter (decimal), renamed in last
//	journal-<escaped id>.log     write-ahead journal of the versions since
//
// A journal is a sequence of records in the CRC frame scrub.WalkLog
// verifies; a record's payload is
//
//	1 byte   record kind (recordBase | recordDelta)
//	uvarint  version number the record produces
//	bytes    XML body — the version-1 document for recordBase,
//	         the completed delta for recordDelta
//
// A partial record at the end of a journal is a torn tail: an append
// cut short by a crash, whose Put was never acknowledged. Damage
// anywhere else is corruption.

// Record kinds.
const (
	recordBase  byte = 1 // full document, always version 1
	recordDelta byte = 2 // completed delta producing its version
)

const (
	journalPrefix = "journal-"
	journalSuffix = ".log"
)

// Chain is one document's history as a legacy directory holds it.
type Chain struct {
	ID string
	// Base is version 1, serialized.
	Base []byte
	// Deltas[i] is the serialized completed delta that transforms
	// version i+1 into version i+2.
	Deltas [][]byte
}

// Load reads a directory in the per-document layout: every snapshot,
// then every journal replayed on top, each delta parsed and applied to
// prove that the chain reconstructs. It returns the chains sorted by
// document ID. Load never writes: a torn journal tail is skipped and
// counted in TornTails, not truncated. A corrupt snapshot or mid-log
// journal damage fails with an error matching ErrCorrupt that names
// the file and offset.
func Load(fsys faultfs.FS, dir string) ([]Chain, RecoveryStats, error) {
	l := &loader{fsys: fsys, docs: make(map[string]*legacyDoc)}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	// Two passes: ReadDir is lexicographic, and a document whose id
	// sorts after "journal-" lists its journal before its snapshot
	// directory.
	for _, e := range entries {
		// Quarantined snapshot directories (scrubber leavings) are
		// evidence, not documents.
		if !e.IsDir() || strings.Contains(e.Name(), scrub.QuarantineSuffix) {
			continue
		}
		if err := l.snapshot(filepath.Join(dir, e.Name()), unescapeID(e.Name())); err != nil {
			return nil, RecoveryStats{}, err
		}
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), journalPrefix) || !strings.HasSuffix(e.Name(), journalSuffix) {
			continue
		}
		id := unescapeID(strings.TrimSuffix(strings.TrimPrefix(e.Name(), journalPrefix), journalSuffix))
		if err := l.journal(filepath.Join(dir, e.Name()), id); err != nil {
			return nil, RecoveryStats{}, err
		}
	}
	chains := make([]Chain, 0, len(l.docs))
	for _, d := range l.docs {
		chains = append(chains, d.chain)
	}
	sort.Slice(chains, func(i, j int) bool { return chains[i].ID < chains[j].ID })
	l.stats.Documents = len(chains)
	return chains, l.stats, nil
}

type loader struct {
	fsys  faultfs.FS
	docs  map[string]*legacyDoc
	stats RecoveryStats
}

// legacyDoc is a chain being loaded plus its latest version, which
// each further delta must apply to.
type legacyDoc struct {
	chain  Chain
	latest *dom.Node
}

func (d *legacyDoc) versions() int { return 1 + len(d.chain.Deltas) }

// newLegacyDoc parses a base version.
func newLegacyDoc(id string, base []byte) (*legacyDoc, error) {
	doc, err := dom.ParseWithOptions(bytes.NewReader(base), snapshotLoadOptions())
	if err != nil {
		return nil, err
	}
	xid.Assign(doc)
	return &legacyDoc{chain: Chain{ID: id, Base: base}, latest: doc}, nil
}

// extend parses the next delta and applies it to the latest version.
func (d *legacyDoc) extend(raw []byte) error {
	dl, err := delta.Parse(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("unparseable: %w", err)
	}
	if err := delta.Apply(d.latest, dl); err != nil {
		return fmt.Errorf("does not apply to version %d: %w", d.versions(), err)
	}
	d.chain.Deltas = append(d.chain.Deltas, raw)
	return nil
}

// snapshot reads one document's snapshot directory. A directory
// without a versions counter is not corrupt — it is a snapshot whose
// final rename never happened (crash mid-checkpoint); the journal
// still carries the document, so the half-snapshot is ignored.
func (l *loader) snapshot(sub, id string) error {
	counterPath := filepath.Join(sub, "versions")
	raw, err := l.fsys.ReadFile(counterPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return corruptf(counterPath, -1, err, "unreadable version counter")
	}
	versions, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil || versions < 1 {
		return corruptf(counterPath, -1, nil, "bad version counter %q", raw)
	}
	v1Path := filepath.Join(sub, "v1.xml")
	base, err := l.fsys.ReadFile(v1Path)
	if err != nil {
		return corruptf(v1Path, -1, err, "unreadable base version")
	}
	d, err := newLegacyDoc(id, base)
	if err != nil {
		return corruptf(v1Path, -1, err, "unparseable base version")
	}
	for v := 1; v < versions; v++ {
		dPath := filepath.Join(sub, fmt.Sprintf("delta-%04d.xml", v))
		raw, err := l.fsys.ReadFile(dPath)
		if err != nil {
			return corruptf(dPath, -1, err, "unreadable delta %d", v)
		}
		if err := d.extend(raw); err != nil {
			return corruptf(dPath, -1, err, "delta %d", v)
		}
	}
	l.docs[id] = d
	l.stats.SnapshotVersions += versions
	return nil
}

// journal replays one journal file on top of whatever the snapshot
// held.
func (l *loader) journal(path, id string) error {
	data, err := l.fsys.ReadFile(path)
	if err != nil {
		return corruptf(path, -1, err, "unreadable journal")
	}
	l.stats.JournalBytes += int64(len(data))
	damage := scrub.WalkLog(data, func(_ int64, payload []byte) error {
		kind, version, body, err := decodePayload(payload)
		if err != nil {
			return fmt.Errorf("undecodable record: %w", err)
		}
		return l.record(id, kind, version, body)
	})
	switch {
	case damage == nil:
		return nil
	case damage.Torn:
		l.stats.TornTails++
		return nil
	default:
		return corruptf(path, damage.Offset, nil, "%s", damage.Reason)
	}
}

// decodePayload splits a verified payload into kind, version and body.
func decodePayload(payload []byte) (kind byte, version int, body []byte, err error) {
	if len(payload) < 2 {
		return 0, 0, nil, fmt.Errorf("payload too short (%d bytes)", len(payload))
	}
	kind = payload[0]
	v, n := binary.Uvarint(payload[1:])
	if n <= 0 || v == 0 || v > 1<<31 {
		return 0, 0, nil, fmt.Errorf("bad version varint")
	}
	return kind, int(v), payload[1+n:], nil
}

// record folds one verified journal record into the document's chain,
// skipping records a snapshot already covers.
func (l *loader) record(id string, kind byte, version int, body []byte) error {
	d := l.docs[id]
	switch kind {
	case recordBase:
		if version != 1 {
			return fmt.Errorf("base record claims version %d", version)
		}
		if d != nil {
			l.stats.JournalSkipped++
			return nil
		}
		d, err := newLegacyDoc(id, body)
		if err != nil {
			return fmt.Errorf("unparseable base document: %w", err)
		}
		l.docs[id] = d
	case recordDelta:
		if d == nil {
			return fmt.Errorf("delta record for version %d but no base version", version)
		}
		if version <= d.versions() {
			l.stats.JournalSkipped++
			return nil
		}
		if version != d.versions()+1 {
			return fmt.Errorf("record jumps to version %d after %d", version, d.versions())
		}
		if err := d.extend(body); err != nil {
			return fmt.Errorf("delta record for version %d: %w", version, err)
		}
	default:
		return fmt.Errorf("unknown record kind %d", kind)
	}
	l.stats.JournalRecords++
	return nil
}

// unescapeID decodes a file name back into its document identifier:
// every byte outside [A-Za-z0-9.-] was written as _XX (hex).
func unescapeID(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '_' && i+2 < len(s) {
			if v, err := strconv.ParseUint(s[i+1:i+3], 16, 8); err == nil {
				b.WriteByte(byte(v))
				i += 2
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// snapshotLoadOptions parse persisted XML with full fidelity: the
// serializer adds no indentation, so whitespace-only text in a
// snapshot or journal record is genuine document content and must
// survive the round-trip for XIDs to line up with the original parse.
func snapshotLoadOptions() dom.ParseOptions {
	return dom.ParseOptions{KeepWhitespace: true, KeepComments: true, KeepProcInsts: true}
}
