package delta

import (
	"fmt"
	"sort"

	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

// Apply transforms doc (in place) from the version the delta was
// computed against into the next version. doc must be the Document
// node, with XIDs assigned consistently with the delta.
//
// The engine is deterministic and order-independent with respect to
// d.Ops:
//
//  1. value and attribute operations are applied through an XID index;
//  2. moved subtrees are detached (they keep their identity);
//  3. deleted subtrees are detached and verified against the op's
//     recorded content;
//  4. inserted subtrees and moved subtrees are attached, grouped by
//     target parent and in ascending target position. Groups whose
//     parent does not exist yet (a move into a freshly inserted
//     subtree) wait for a later pass.
//
// On error the document may be partially modified; callers that need
// atomicity should apply to a clone (see ApplyClone).
//
// Apply never panics: deltas arrive from untrusted storage and the
// network, so beyond the explicit validation below any residual panic
// (e.g. an out-of-range tree mutation a corrupt delta slips past the
// checks) is converted into an error.
func Apply(doc *dom.Node, d *Delta) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("delta: apply: internal panic on corrupt delta: %v", r)
		}
	}()
	if d.Empty() {
		return nil
	}
	index := buildIndex(doc)

	// Phase 1: updates and attribute ops.
	for _, op := range d.Ops {
		if err := applyValueOp(index, op); err != nil {
			return err
		}
	}

	// Phase 2: detach moved subtrees.
	type attachment struct {
		pos  int
		node *dom.Node
	}
	pending := make(map[int64][]attachment) // target parent XID -> items
	for _, op := range d.Ops {
		mv, ok := op.(Move)
		if !ok {
			continue
		}
		n := index[mv.XID]
		if n == nil {
			return fmt.Errorf("delta: move: no node with XID %d", mv.XID)
		}
		if n.Parent == nil || n.Parent.XID != mv.FromParent {
			return fmt.Errorf("delta: move %d: parent is %v, op says %d", mv.XID, parentXID(n), mv.FromParent)
		}
		n.Detach()
		pending[mv.ToParent] = append(pending[mv.ToParent], attachment{pos: mv.ToPos, node: n})
	}

	// Phase 3: detach deleted subtrees. Every target is resolved before
	// any is detached, and verified only once all are, so a delete
	// nested in another deleted subtree (a text node the diff split off
	// its deleted parent) applies in any op order.
	var dels []Delete
	var targets []*dom.Node
	for _, op := range d.Ops {
		del, ok := op.(Delete)
		if !ok {
			continue
		}
		n := index[del.XID]
		if n == nil {
			return fmt.Errorf("delta: delete: no node with XID %d", del.XID)
		}
		if n.Parent == nil || n.Parent.XID != del.Parent {
			return fmt.Errorf("delta: delete %d: parent is %v, op says %d", del.XID, parentXID(n), del.Parent)
		}
		dels = append(dels, del)
		targets = append(targets, n)
	}
	for i, n := range targets {
		if n.Parent == nil {
			return fmt.Errorf("delta: delete %d: node deleted twice", dels[i].XID)
		}
		n.Detach()
	}
	for i, n := range targets {
		if del := dels[i]; del.Subtree != nil && !dom.Equal(n, del.Subtree) {
			return fmt.Errorf("delta: delete %d: document content differs from recorded subtree: %s",
				del.XID, dom.Diagnose(n, del.Subtree))
		}
		// The detached nodes are gone; drop them from the index so a
		// corrupt delta cannot re-attach below a deleted node.
		dom.WalkPre(n, func(x *dom.Node) bool {
			delete(index, x.XID)
			return true
		})
	}

	// Phase 4: prepare insertions.
	for _, op := range d.Ops {
		ins, ok := op.(Insert)
		if !ok {
			continue
		}
		if ins.Subtree == nil {
			return fmt.Errorf("delta: insert %d: missing subtree content", ins.XID)
		}
		sub := ins.Subtree.Clone()
		if ins.XIDMap.Len() > 0 {
			if err := ins.XIDMap.ApplyTo(sub); err != nil {
				return fmt.Errorf("delta: insert %d: %w", ins.XID, err)
			}
		}
		pending[ins.Parent] = append(pending[ins.Parent], attachment{pos: ins.Pos, node: sub})
	}

	// Phase 5: attach, multi-pass until every group's parent exists.
	for len(pending) > 0 {
		parents := make([]int64, 0, len(pending))
		for p := range pending {
			if _, ok := index[p]; ok {
				parents = append(parents, p)
			}
		}
		if len(parents) == 0 {
			return fmt.Errorf("delta: %d attachment group(s) reference unknown parents", len(pending))
		}
		sort.Slice(parents, func(i, j int) bool { return parents[i] < parents[j] })
		for _, p := range parents {
			parent := index[p]
			group := pending[p]
			delete(pending, p)
			sort.SliceStable(group, func(i, j int) bool { return group[i].pos < group[j].pos })
			for _, at := range group {
				if err := parent.InsertAt(at.pos, at.node); err != nil {
					return fmt.Errorf("delta: attach at %d[%d]: %w", p, at.pos, err)
				}
				// Newly reachable nodes become attachment targets for
				// later passes (moves into inserted subtrees).
				dom.WalkPre(at.node, func(x *dom.Node) bool {
					if x.XID != 0 {
						index[x.XID] = x
					}
					return true
				})
			}
		}
	}
	return nil
}

// ApplyClone applies the delta to a deep copy of doc and returns it;
// doc itself is never modified, even on error.
func ApplyClone(doc *dom.Node, d *Delta) (*dom.Node, error) {
	clone := doc.Clone()
	if err := Apply(clone, d); err != nil {
		return nil, err
	}
	return clone, nil
}

func applyValueOp(index map[int64]*dom.Node, op Op) error {
	switch o := op.(type) {
	case Update:
		n := index[o.XID]
		if n == nil {
			return fmt.Errorf("delta: update: no node with XID %d", o.XID)
		}
		if n.Value != o.Old {
			return fmt.Errorf("delta: update %d: value %q, op says %q", o.XID, n.Value, o.Old)
		}
		n.Value = o.New
	case InsertAttr:
		n := index[o.XID]
		if n == nil {
			return fmt.Errorf("delta: insert-attribute: no node with XID %d", o.XID)
		}
		if _, exists := n.Attribute(o.Name); exists {
			return fmt.Errorf("delta: insert-attribute %d: %s already present", o.XID, o.Name)
		}
		n.SetAttribute(o.Name, o.Value)
	case DeleteAttr:
		n := index[o.XID]
		if n == nil {
			return fmt.Errorf("delta: delete-attribute: no node with XID %d", o.XID)
		}
		if v, exists := n.Attribute(o.Name); !exists {
			return fmt.Errorf("delta: delete-attribute %d: %s absent", o.XID, o.Name)
		} else if v != o.Old {
			return fmt.Errorf("delta: delete-attribute %d: %s=%q, op says %q", o.XID, o.Name, v, o.Old)
		}
		n.RemoveAttribute(o.Name)
	case UpdateAttr:
		n := index[o.XID]
		if n == nil {
			return fmt.Errorf("delta: update-attribute: no node with XID %d", o.XID)
		}
		if v, exists := n.Attribute(o.Name); !exists {
			return fmt.Errorf("delta: update-attribute %d: %s absent", o.XID, o.Name)
		} else if v != o.Old {
			return fmt.Errorf("delta: update-attribute %d: %s=%q, op says %q", o.XID, o.Name, v, o.Old)
		}
		n.SetAttribute(o.Name, o.New)
	}
	return nil
}

func buildIndex(doc *dom.Node) map[int64]*dom.Node {
	index := make(map[int64]*dom.Node, 256)
	dom.WalkPre(doc, func(n *dom.Node) bool {
		if n.XID != 0 {
			index[n.XID] = n
		}
		return true
	})
	return index
}

func parentXID(n *dom.Node) int64 {
	if n.Parent == nil {
		return 0
	}
	return n.Parent.XID
}

// Validate performs static sanity checks on a delta without a document:
// XID maps must agree with subtree sizes and roots, and positions must
// be non-negative. It catches corrupt serialized deltas early.
func Validate(d *Delta) error {
	for _, op := range d.Ops {
		switch o := op.(type) {
		case Insert:
			if err := validateSubtreeOp(o.XID, o.XIDMap, o.Pos, o.Subtree); err != nil {
				return fmt.Errorf("delta: insert: %w", err)
			}
		case Delete:
			if err := validateSubtreeOp(o.XID, o.XIDMap, o.Pos, o.Subtree); err != nil {
				return fmt.Errorf("delta: delete: %w", err)
			}
		case Move:
			if o.FromPos < 0 || o.ToPos < 0 {
				return fmt.Errorf("delta: move %d: negative position", o.XID)
			}
		}
	}
	return nil
}

func validateSubtreeOp(x int64, m xid.Map, pos int, sub *dom.Node) error {
	if pos < 0 {
		return fmt.Errorf("xid %d: negative position", x)
	}
	if sub == nil {
		return fmt.Errorf("xid %d: missing subtree", x)
	}
	if m.Len() != sub.Size() {
		return fmt.Errorf("xid %d: xid-map has %d entries for %d nodes", x, m.Len(), sub.Size())
	}
	if m.Root() != x {
		return fmt.Errorf("xid %d: xid-map root is %d", x, m.Root())
	}
	return nil
}
