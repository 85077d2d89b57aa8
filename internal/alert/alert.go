// Package alert implements the subscription system of the Xyleme
// architecture (the paper's Section 2 and Figure 1): when a new version
// of a document arrives and its delta is computed, the alerter scans
// the delta for patterns of interest — "a new product has been added to
// a catalog" — and raises alerts for the matching subscriptions.
package alert

import (
	"fmt"
	"strings"
	"sync"

	"xydiff/internal/delta"
	"xydiff/internal/dom"
	"xydiff/internal/xpathlite"
)

// Subscription describes a pattern of interest over deltas.
type Subscription struct {
	// ID names the subscription in alerts.
	ID string
	// DocID restricts the subscription to one stored document; empty
	// matches every document.
	DocID string
	// Path is a label path the affected node must match, e.g.
	// "/Catalog/Category/Product" (anchored at the root) or
	// "Category/Product" (suffix match). Position predicates like [2]
	// are ignored; "*" matches any single label. Empty matches any
	// node.
	Path string
	// Query, when non-nil, replaces Path with a full xpathlite
	// expression evaluated against the affected node in its document —
	// e.g. //Product[Price>500] alerts only on expensive products.
	Query *xpathlite.Expr
	// Kinds restricts the operation kinds of interest; empty means all.
	Kinds []delta.Kind
	// Contains, when non-empty, requires the operation's content (the
	// inserted or deleted subtree's text, or the new value of an
	// update) to contain the substring.
	Contains string
}

// Alert reports that one delta operation matched one subscription.
type Alert struct {
	SubID   string
	DocID   string
	Version int
	Op      delta.Op
	// Path locates the affected node (in the new version when it still
	// exists, in the old version for deletions).
	Path string
}

func (a Alert) String() string {
	return fmt.Sprintf("[%s] %s v%d: %s at %s", a.SubID, a.DocID, a.Version, a.Op.Kind(), a.Path)
}

// Alerter evaluates subscriptions against deltas. It is safe for
// concurrent use.
type Alerter struct {
	mu    sync.RWMutex
	subs  []Subscription
	sinks []Notifier
}

// New returns an Alerter with the given initial subscriptions.
func New(subs ...Subscription) *Alerter {
	return &Alerter{subs: subs}
}

// Subscribe adds a subscription.
func (a *Alerter) Subscribe(s Subscription) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.subs = append(a.subs, s)
}

// Unsubscribe removes all subscriptions with the given ID, reporting
// whether any existed.
func (a *Alerter) Unsubscribe(id string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	kept := a.subs[:0]
	removed := false
	for _, s := range a.subs {
		if s.ID == id {
			removed = true
			continue
		}
		kept = append(kept, s)
	}
	a.subs = kept
	return removed
}

// Subscriptions returns a snapshot of the registered subscriptions.
func (a *Alerter) Subscriptions() []Subscription {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]Subscription, len(a.subs))
	copy(out, a.subs)
	return out
}

// Notify evaluates every subscription against the delta that produced
// version newVersion of document docID. oldDoc and newDoc are the
// versions before and after; they are used to resolve the paths of
// affected nodes (XIDs must be consistent with the delta, which is the
// case for documents coming out of diff.Diff or vstore.Store). Matches
// are returned and also fanned out to any attached Notifier sinks.
func (a *Alerter) Notify(docID string, newVersion int, oldDoc, newDoc *dom.Node, d *delta.Delta) []Alert {
	if d.Empty() {
		return nil
	}
	a.mu.RLock()
	subs := a.subs
	a.mu.RUnlock()
	if len(subs) == 0 {
		return nil
	}
	oldIdx := indexXIDs(oldDoc)
	newIdx := indexXIDs(newDoc)
	var alerts []Alert
	for _, op := range d.Ops {
		node, path := locate(op, oldIdx, newIdx)
		for _, s := range subs {
			if s.DocID != "" && s.DocID != docID {
				continue
			}
			if !kindMatches(s.Kinds, op.Kind()) {
				continue
			}
			if s.Query != nil {
				if node == nil || !queryMatches(s.Query, node) {
					continue
				}
			} else if s.Path != "" && !pathMatches(s.Path, path) {
				continue
			}
			if s.Contains != "" && !contentContains(op, node, s.Contains) {
				continue
			}
			alerts = append(alerts, Alert{SubID: s.ID, DocID: docID, Version: newVersion, Op: op, Path: path})
		}
	}
	a.dispatch(alerts)
	return alerts
}

func indexXIDs(doc *dom.Node) map[int64]*dom.Node {
	idx := make(map[int64]*dom.Node)
	if doc == nil {
		return idx
	}
	dom.WalkPre(doc, func(n *dom.Node) bool {
		if n.XID != 0 {
			idx[n.XID] = n
		}
		return true
	})
	return idx
}

// locate resolves the node an operation is about, preferring the new
// version (deletes resolve in the old version).
func locate(op delta.Op, oldIdx, newIdx map[int64]*dom.Node) (*dom.Node, string) {
	var n *dom.Node
	if op.Kind() == delta.KindDelete {
		n = oldIdx[op.TargetXID()]
	} else {
		n = newIdx[op.TargetXID()]
		if n == nil {
			n = oldIdx[op.TargetXID()]
		}
	}
	if n == nil {
		return nil, ""
	}
	// A text node's value belongs, for subscribers, to its element: an
	// update of <Price>'s character data should match "Product/Price".
	if n.Type == dom.Text && n.Parent != nil {
		return n, n.Parent.Path()
	}
	return n, n.Path()
}

// queryMatches applies an xpathlite expression to the affected node,
// falling back to the parent element for text nodes (an update of
// <Price>'s character data should match //Price).
func queryMatches(q *xpathlite.Expr, n *dom.Node) bool {
	if q.Matches(n) {
		return true
	}
	return n.Type == dom.Text && n.Parent != nil && q.Matches(n.Parent)
}

func kindMatches(kinds []delta.Kind, k delta.Kind) bool {
	if len(kinds) == 0 {
		return true
	}
	for _, want := range kinds {
		if want == k {
			return true
		}
	}
	return false
}

// pathMatches compares a subscription pattern against a node path.
// Both are segmented on "/" with position predicates stripped; an
// anchored pattern (leading "/") must match the full path, otherwise a
// suffix match suffices. "*" matches any single segment.
func pathMatches(pattern, path string) bool {
	if path == "" {
		return false
	}
	p := segments(pattern)
	n := segments(path)
	if len(p) == 0 {
		return true
	}
	if strings.HasPrefix(pattern, "/") {
		if len(p) != len(n) {
			return false
		}
		return segsMatch(p, n)
	}
	if len(p) > len(n) {
		return false
	}
	return segsMatch(p, n[len(n)-len(p):])
}

func segsMatch(pattern, path []string) bool {
	for i := range pattern {
		if pattern[i] != "*" && pattern[i] != path[i] {
			return false
		}
	}
	return true
}

func segments(p string) []string {
	var out []string
	for _, s := range strings.Split(p, "/") {
		if s == "" {
			continue
		}
		if i := strings.IndexByte(s, '['); i >= 0 {
			s = s[:i]
		}
		out = append(out, s)
	}
	return out
}

// contentContains checks the operation's payload for a substring.
func contentContains(op delta.Op, node *dom.Node, substr string) bool {
	switch o := op.(type) {
	case delta.Insert:
		return o.Subtree != nil && strings.Contains(o.Subtree.TextContent(), substr)
	case delta.Delete:
		return o.Subtree != nil && strings.Contains(o.Subtree.TextContent(), substr)
	case delta.Update:
		return strings.Contains(o.New, substr) || strings.Contains(o.Old, substr)
	case delta.InsertAttr:
		return strings.Contains(o.Value, substr)
	case delta.DeleteAttr:
		return strings.Contains(o.Old, substr)
	case delta.UpdateAttr:
		return strings.Contains(o.New, substr) || strings.Contains(o.Old, substr)
	case delta.Move:
		return node != nil && strings.Contains(node.TextContent(), substr)
	default:
		return false
	}
}
