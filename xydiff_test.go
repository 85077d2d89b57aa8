package xydiff_test

import (
	"strings"
	"testing"

	"xydiff"
)

func TestFacadeQuickstart(t *testing.T) {
	oldDoc, err := xydiff.ParseString(`<cat><p>old</p><q>same</q></cat>`)
	if err != nil {
		t.Fatal(err)
	}
	newDoc, err := xydiff.ParseString(`<cat><q>same</q><p>new</p></cat>`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := xydiff.Diff(oldDoc, newDoc)
	if err != nil {
		t.Fatal(err)
	}
	if d.Empty() {
		t.Fatal("expected changes")
	}
	v2, err := xydiff.ApplyClone(oldDoc, d)
	if err != nil {
		t.Fatal(err)
	}
	if !xydiff.Equal(v2, newDoc) {
		t.Fatal("apply did not produce the new version")
	}
	inv, err := d.Invert()
	if err != nil {
		t.Fatal(err)
	}
	v1, err := xydiff.ApplyClone(v2, inv)
	if err != nil {
		t.Fatal(err)
	}
	if !xydiff.Equal(v1, oldDoc) {
		t.Fatal("inverse did not restore the old version")
	}
}

func TestFacadeDeltaXML(t *testing.T) {
	oldDoc, _ := xydiff.ParseString(`<a><b>1</b></a>`)
	newDoc, _ := xydiff.ParseString(`<a><b>2</b></a>`)
	d, err := xydiff.Diff(oldDoc, newDoc)
	if err != nil {
		t.Fatal(err)
	}
	text, err := d.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "<delta") || !strings.Contains(string(text), "<update") {
		t.Fatalf("delta XML = %s", text)
	}
	d2, err := xydiff.ParseDeltaString(string(text))
	if err != nil {
		t.Fatal(err)
	}
	got, err := xydiff.ApplyClone(oldDoc, d2)
	if err != nil {
		t.Fatal(err)
	}
	if !xydiff.Equal(got, newDoc) {
		t.Fatal("round-tripped delta broken")
	}
}

func TestFacadeOptionsAndDetailed(t *testing.T) {
	oldDoc, _ := xydiff.ParseString(`<r><x>1</x></r>`)
	newDoc, _ := xydiff.ParseString(`<r><x>2</x></r>`)
	r, err := xydiff.DiffDetailed(oldDoc, newDoc, xydiff.Options{EagerDown: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Delta.Count().Updates != 1 {
		t.Fatalf("counts = %v", r.Delta.Count())
	}
	if r.OldNodes == 0 || r.Timings.Total() <= 0 {
		t.Error("detailed stats missing")
	}
}

func TestFacadeApplyInPlace(t *testing.T) {
	oldDoc, _ := xydiff.ParseString(`<r><x>1</x></r>`)
	newDoc, _ := xydiff.ParseString(`<r><x>2</x></r>`)
	d, err := xydiff.Diff(oldDoc, newDoc)
	if err != nil {
		t.Fatal(err)
	}
	if err := xydiff.Apply(oldDoc, d); err != nil {
		t.Fatal(err)
	}
	if !xydiff.Equal(oldDoc, newDoc) {
		t.Fatal("in-place apply failed")
	}
}

func TestFacadeWarehouse(t *testing.T) {
	w := xydiff.NewWarehouse()
	defer w.Close()
	w.Subscribe(xydiff.Subscription{
		ID:    "watch",
		Query: xydiff.MustCompileQuery(`//item`),
	})
	v1, _ := xydiff.ParseString(`<list><item>a</item></list>`)
	v2, _ := xydiff.ParseString(`<list><item>a</item><item>b</item></list>`)
	if _, err := w.Load("l", v1); err != nil {
		t.Fatal(err)
	}
	res, err := w.Load("l", v2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alerts) == 0 {
		t.Error("no alerts fired")
	}
	if docs := w.Search("b"); len(docs) != 1 {
		t.Errorf("search = %v", docs)
	}
	old, err := w.Version("l", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !xydiff.Equal(old, func() *xydiff.Node { d, _ := xydiff.ParseString(`<list><item>a</item></list>`); return d }()) {
		t.Error("version 1 wrong")
	}
}

func TestFacadeQuery(t *testing.T) {
	doc, _ := xydiff.ParseString(`<r><p><v>10</v></p><p><v>20</v></p></r>`)
	q, err := xydiff.CompileQuery(`//p[v>15]/v`)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Value(doc); got != "20" {
		t.Errorf("query value = %q", got)
	}
	if _, err := xydiff.CompileQuery(`[broken`); err == nil {
		t.Error("bad query accepted")
	}
}
