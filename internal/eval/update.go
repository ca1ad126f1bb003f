package eval

import (
	"fmt"

	"xqindep/internal/xmltree"
	"xqindep/internal/xquery"
)

// CommandKind discriminates elementary update commands ι.
type CommandKind int

const (
	// CmdInsert is ins(L, pos, l).
	CmdInsert CommandKind = iota
	// CmdDelete is del(l).
	CmdDelete
	// CmdReplace is repl(l, L).
	CmdReplace
	// CmdRename is ren(l, a).
	CmdRename
)

// Command is an elementary update command of a pending list.
type Command struct {
	Kind   CommandKind
	Target xmltree.Loc      // l
	Source []xmltree.Loc    // L: roots of source elements (insert/replace)
	Pos    xquery.InsertPos // insert only
	Name   string           // rename only
}

// PendingList is the update pending list w.
type PendingList []Command

// BuildPending evaluates the update u against the store and produces
// its pending list (phase i of the W3C semantics: σ,γ ⊨ u ⇒ σw,w).
// Embedded queries are evaluated against the current store; source
// sequences are copied at build time, so later mutations do not alias
// the input document.
func BuildPending(s *xmltree.Store, env Env, u xquery.Update) (PendingList, error) {
	switch n := u.(type) {
	case xquery.UEmpty:
		return nil, nil
	case xquery.USeq:
		l, err := BuildPending(s, env, n.Left)
		if err != nil {
			return nil, err
		}
		r, err := BuildPending(s, env, n.Right)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	case xquery.UFor:
		seq, err := Query(s, env, n.In)
		if err != nil {
			return nil, err
		}
		var out PendingList
		for _, l := range seq {
			w, err := BuildPending(s, env.Bind(n.Var, []xmltree.Loc{l}), n.Body)
			if err != nil {
				return nil, err
			}
			out = append(out, w...)
		}
		return out, nil
	case xquery.ULet:
		seq, err := Query(s, env, n.Bind)
		if err != nil {
			return nil, err
		}
		return BuildPending(s, env.Bind(n.Var, seq), n.Body)
	case xquery.UIf:
		cond, err := Query(s, env, n.Cond)
		if err != nil {
			return nil, err
		}
		if len(cond) > 0 {
			return BuildPending(s, env, n.Then)
		}
		return BuildPending(s, env, n.Else)
	case xquery.Delete:
		targets, err := Query(s, env, n.Target)
		if err != nil {
			return nil, err
		}
		var out PendingList
		for _, l := range targets {
			out = append(out, Command{Kind: CmdDelete, Target: l})
		}
		return out, nil
	case xquery.Rename:
		l, err := singleTarget(s, env, n.Target, "rename")
		if err != nil {
			return nil, err
		}
		if !s.IsElement(l) {
			return nil, fmt.Errorf("eval: rename target is a text node")
		}
		return PendingList{{Kind: CmdRename, Target: l, Name: n.As}}, nil
	case xquery.Insert:
		src, err := Query(s, env, n.Source)
		if err != nil {
			return nil, err
		}
		l, err := singleTarget(s, env, n.Target, "insert")
		if err != nil {
			return nil, err
		}
		if n.Pos.IsInto() && !s.IsElement(l) {
			return nil, fmt.Errorf("eval: insert into a text node")
		}
		return PendingList{{Kind: CmdInsert, Target: l, Source: copyAll(s, src), Pos: n.Pos}}, nil
	case xquery.Replace:
		l, err := singleTarget(s, env, n.Target, "replace")
		if err != nil {
			return nil, err
		}
		src, err := Query(s, env, n.Source)
		if err != nil {
			return nil, err
		}
		return PendingList{{Kind: CmdReplace, Target: l, Source: copyAll(s, src)}}, nil
	default:
		return nil, fmt.Errorf("eval: unknown update node %T", u)
	}
}

// singleTarget enforces the W3C rule that insert/replace/rename
// targets produce exactly one node.
func singleTarget(s *xmltree.Store, env Env, q xquery.Query, op string) (xmltree.Loc, error) {
	locs, err := Query(s, env, q)
	if err != nil {
		return xmltree.NilLoc, err
	}
	if len(locs) != 1 {
		return xmltree.NilLoc, fmt.Errorf("eval: %s target produced %d nodes, want exactly 1", op, len(locs))
	}
	return locs[0], nil
}

func copyAll(s *xmltree.Store, locs []xmltree.Loc) []xmltree.Loc {
	out := make([]xmltree.Loc, len(locs))
	for i, l := range locs {
		out[i] = s.Copy(s, l)
	}
	return out
}

// Check performs the W3C sanity checks on a pending list (phase ii):
// at most one rename and one replace per target node, and insert
// sources must be detached fresh nodes.
func (w PendingList) Check() error {
	renamed := make(map[xmltree.Loc]bool)
	replaced := make(map[xmltree.Loc]bool)
	for _, c := range w {
		switch c.Kind {
		case CmdRename:
			if renamed[c.Target] {
				return fmt.Errorf("eval: node %d renamed twice", c.Target)
			}
			renamed[c.Target] = true
		case CmdReplace:
			if replaced[c.Target] {
				return fmt.Errorf("eval: node %d replaced twice", c.Target)
			}
			replaced[c.Target] = true
		}
	}
	return nil
}

// Apply applies the pending list to the store (phase iii:
// σw ⊢ w ; σu). Commands are applied by kind — inserts, then
// replaces, then renames, then deletes — mirroring the W3C
// upd:applyUpdates ordering where deletions happen last. Commands
// whose target has become detached are skipped, as the detached
// subtree is no longer part of σu@lt.
func (w PendingList) Apply(s *xmltree.Store) error {
	for _, c := range w {
		if c.Kind == CmdInsert {
			if err := applyInsert(s, c); err != nil {
				return err
			}
		}
	}
	for _, c := range w {
		if c.Kind == CmdReplace {
			p := s.Parent(c.Target)
			if p == xmltree.NilLoc {
				continue
			}
			i := s.IndexInParent(c.Target)
			s.Detach(c.Target)
			s.InsertChildren(p, i, c.Source)
		}
	}
	for _, c := range w {
		if c.Kind == CmdRename {
			s.SetTag(c.Target, c.Name)
		}
	}
	for _, c := range w {
		if c.Kind == CmdDelete {
			s.Detach(c.Target)
		}
	}
	return nil
}

func applyInsert(s *xmltree.Store, c Command) error {
	switch c.Pos {
	case xquery.Into, xquery.IntoLast:
		s.InsertChildren(c.Target, s.ChildCount(c.Target), c.Source)
	case xquery.IntoFirst:
		s.InsertChildren(c.Target, 0, c.Source)
	case xquery.Before, xquery.After:
		p := s.Parent(c.Target)
		if p == xmltree.NilLoc {
			return nil // target detached; nothing to do
		}
		i := s.IndexInParent(c.Target)
		if c.Pos == xquery.After {
			i++
		}
		s.InsertChildren(p, i, c.Source)
	default:
		return fmt.Errorf("eval: unknown insert position %v", c.Pos)
	}
	return nil
}

// Update runs the three update phases against the store:
// σ,γ ⊨ u : σu. The store is mutated in place.
func Update(s *xmltree.Store, env Env, u xquery.Update) error {
	w, err := BuildPending(s, env, u)
	if err != nil {
		return err
	}
	if err := w.Check(); err != nil {
		return err
	}
	return w.Apply(s)
}
