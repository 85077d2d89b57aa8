package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"sort"

	"xydiff/internal/delta"
	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

// checkDocs is the check pass of one client over its own documents,
// run against the reopened store. Every document's latest version and
// one seeded past version must come back byte-for-byte as sent. On a
// seeded sample of replay documents, every stored delta is fetched and
// applied to the version before it with delta.Apply, and one
// aggregated delta is applied the same way. Each failure counts toward
// error_ratio.
func (c *client) checkDocs(rng *rand.Rand, replay int) []sample {
	docs := append([]int(nil), c.docs...)
	sort.Ints(docs)
	replaySet := map[int]bool{}
	for _, i := range rng.Perm(len(docs))[:min(replay, len(docs))] {
		replaySet[docs[i]] = true
	}
	var out []sample
	for _, d := range docs {
		cur := c.st.cur[d]
		if cur == 0 {
			continue
		}
		id := docID(d)
		out = append(out, c.do(opLatest, d, 0, "check"))
		n := 1 + rng.Intn(cur)
		out = append(out, c.get(opVersion, id, fmt.Sprintf("/docs/%s/versions/%d", id, n), "check", func(h http.Header, body []byte) error {
			return checkDoc(h, body, n, c.st.in.body(d, n))
		}))
		if replaySet[d] && cur >= 2 {
			out = append(out, c.replay(d, 1+rng.Intn(cur-1))...)
		}
	}
	return out
}

// replay rebuilds document d from version 1 by applying every stored
// delta in turn, comparing each result with the body sent, then
// applies the aggregated delta from version aggFrom to the latest.
func (c *client) replay(d, aggFrom int) []sample {
	id := docID(d)
	cur := c.st.cur[d]
	doc, err := dom.Parse(bytes.NewReader(c.st.in.body(d, 1)))
	if err != nil {
		c.t.attempted++
		c.t.fail(true, "replay %s: parse version 1: %v", id, err)
		return nil
	}
	xid.Assign(doc)
	var out []sample
	var aggBase *dom.Node
	for n := 1; n < cur; n++ {
		if n == aggFrom {
			aggBase = doc.Clone()
		}
		want := c.st.in.body(d, n+1)
		s := c.get(opDelta, id, fmt.Sprintf("/docs/%s/deltas/%d", id, n), "check", func(_ http.Header, body []byte) error {
			return applyCheck(doc, body, want)
		})
		out = append(out, s)
		if !s.ok {
			return out
		}
	}
	want := c.st.in.body(d, cur)
	out = append(out, c.get(opAggregate, id, fmt.Sprintf("/docs/%s/deltas/%d..%d", id, aggFrom, cur), "check", func(_ http.Header, body []byte) error {
		return applyCheck(aggBase, body, want)
	}))
	return out
}

// applyCheck applies a served delta to doc in place and compares the
// result with want.
func applyCheck(doc *dom.Node, body, want []byte) error {
	dl, err := delta.Parse(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("parse delta: %w", err)
	}
	if err := delta.Apply(doc, dl); err != nil {
		return fmt.Errorf("apply delta: %w", err)
	}
	var buf bytes.Buffer
	if _, err := doc.WriteTo(&buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), want) {
		return fmt.Errorf("applying the delta gives %d bytes that differ from the %d bytes sent", buf.Len(), len(want))
	}
	return nil
}
