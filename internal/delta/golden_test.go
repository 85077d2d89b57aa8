package delta_test

// Golden-file tests for the delta XML serialization. A diff-core change
// that alters the computed delta — different ops, different order,
// different XIDs — fails here loudly with a readable diff against the
// committed file instead of surfacing as a silent behavior shift.
// Regenerate the files with:
//
//	go test ./internal/delta -run TestGoldenDeltas -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
)

var update = flag.Bool("update", false, "rewrite the golden delta files")

// goldenCases are small, hand-readable document pairs covering every
// operation kind the delta format serializes: updates, attribute ops,
// deletes, inserts, inter-parent and intra-parent moves. The two
// mixed-content cases move an element into (and out of) an inserted
// (deleted) element whose text it separates: without the moved child
// the two texts would sit side by side, which XML cannot write.
var goldenCases = []struct {
	name     string
	old, new string
}{
	{
		name: "update-text",
		old:  `<doc><title>Detecting Changes</title><year>2001</year></doc>`,
		new:  `<doc><title>Detecting Changes</title><year>2002</year></doc>`,
	},
	{
		name: "attributes",
		old:  `<cfg><srv host="a" port="80"/><srv host="b" port="81" old="x"/></cfg>`,
		new:  `<cfg><srv host="a" port="8080"/><srv host="b" port="81" fresh="y"/></cfg>`,
	},
	{
		name: "insert-delete",
		old:  `<list><item>one</item><item>two</item><item>three</item></list>`,
		new:  `<list><item>one</item><item>three</item><item>four</item></list>`,
	},
	{
		name: "move-across-parents",
		old:  `<site><page id="p1"><sec>alpha</sec><sec>beta</sec></page><page id="p2"><sec>gamma</sec></page></site>`,
		new:  `<site><page id="p1"><sec>alpha</sec></page><page id="p2"><sec>gamma</sec><sec>beta</sec></page></site>`,
	},
	{
		name: "move-within-parent",
		old:  `<seq><a>111111</a><b>222222</b><c>333333</c><d>444444</d></seq>`,
		new:  `<seq><b>222222</b><c>333333</c><d>444444</d><a>111111</a></seq>`,
	},
	{
		name: "mixed",
		old: `<catalog><product sku="1"><name>chair</name><price>10</price></product>` +
			`<product sku="2"><name>desk</name><price>40</price></product></catalog>`,
		new: `<catalog><product sku="2"><name>desk</name><price>45</price></product>` +
			`<product sku="3"><name>lamp</name><price>7</price></product></catalog>`,
	},
	{
		name: "mixed-content-move-in",
		old:  `<r><x><b>moved content here</b><c>keep</c></x><y>stay</y></r>`,
		new:  `<r><x><c>keep</c></x><y>stay</y><p>hello<b>moved content here</b>world</p></r>`,
	},
	{
		name: "mixed-content-move-out",
		old:  `<r><x><c>keep</c></x><y>stay</y><p>hello<b>moved content here</b>world</p></r>`,
		new:  `<r><x><b>moved content here</b><c>keep</c></x><y>stay</y></r>`,
	},
}

func TestGoldenDeltas(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			oldDoc, err := dom.ParseString(tc.old)
			if err != nil {
				t.Fatal(err)
			}
			newDoc, err := dom.ParseString(tc.new)
			if err != nil {
				t.Fatal(err)
			}
			d, err := diff.Diff(oldDoc, newDoc, diff.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.MarshalText()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", tc.name+".delta.xml")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create the golden file)", err)
			}
			if string(got) != string(want) {
				t.Errorf("delta for %q changed\n got: %s\nwant: %s\n(intentional? regenerate with -update)",
					tc.name, got, want)
			}
			// The encoded delta parses back and still transforms the old
			// version into the new one, and its inverse back again.
			back, err := delta.Parse(bytes.NewReader(got))
			if err != nil {
				t.Fatalf("golden delta does not parse back: %v", err)
			}
			v2, err := delta.ApplyClone(oldDoc, back)
			if err != nil {
				t.Fatalf("apply parsed delta: %v", err)
			}
			if !dom.Equal(v2, newDoc) {
				t.Fatalf("parsed delta yields %s, want %s", v2, newDoc)
			}
			inv, err := back.Invert()
			if err != nil {
				t.Fatal(err)
			}
			v1, err := delta.ApplyClone(v2, inv)
			if err != nil {
				t.Fatalf("apply inverted delta: %v", err)
			}
			if !dom.Equal(v1, oldDoc) {
				t.Fatalf("inverted delta yields %s, want %s", v1, oldDoc)
			}
		})
	}
}
