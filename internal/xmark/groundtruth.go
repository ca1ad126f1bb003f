package xmark

import (
	"fmt"

	"xqindep/internal/eval"
	"xqindep/internal/xmltree"
)

// Truth is the empirically established dependence matrix of the
// benchmark: Dependent[update][view] is true when some sample
// document witnesses a result change. Pairs not witnessed as
// dependent on any sample are taken as independent — the counterpart
// of the paper's manual determination of truly independent pairs
// (most pairs are evidently independent or evidently dependent; the
// multi-seed sampling plays the manual audit's role here).
type Truth struct {
	// Dependent[update][view] records witnessed dependence; views
	// absent from the inner map are independent.
	Dependent map[string]map[string]bool
}

// IsDependent reports the recorded ground truth for (update, view).
func (t *Truth) IsDependent(update, view string) bool {
	return t.Dependent[update][view]
}

// GroundTruth evaluates every view before and after every update on
// each sample document and records observed dependence. Runtime
// errors (which the benchmark workload avoids) fail loudly.
func GroundTruth(docs []xmltree.Tree) (*Truth, error) {
	views := Views()
	ups := Updates()
	out := &Truth{Dependent: make(map[string]map[string]bool, len(ups))}
	for _, u := range ups {
		out.Dependent[u.Name] = make(map[string]bool, len(views))
	}
	for _, doc := range docs {
		// Baseline view results on the original document.
		base := make(map[string][]uint64, len(views))
		for _, v := range views {
			h, err := viewHashes(doc, v)
			if err != nil {
				return nil, fmt.Errorf("xmark: view %s on base document: %w", v.Name, err)
			}
			base[v.Name] = h
		}
		for _, u := range ups {
			s2 := xmltree.NewStore()
			root2 := s2.Copy(doc.Store, doc.Root)
			if err := eval.Update(s2, eval.RootEnv(root2), u.AST); err != nil {
				return nil, fmt.Errorf("xmark: update %s: %w", u.Name, err)
			}
			updated := xmltree.NewTree(s2, root2)
			for _, v := range views {
				if out.Dependent[u.Name][v.Name] {
					continue // already witnessed
				}
				h, err := viewHashes(updated, v)
				if err != nil {
					return nil, fmt.Errorf("xmark: view %s after %s: %w", v.Name, u.Name, err)
				}
				if !hashesEqual(base[v.Name], h) {
					out.Dependent[u.Name][v.Name] = true
				}
			}
		}
	}
	return out, nil
}

// viewHashes evaluates a view and returns the structural hashes of its
// result sequence.
func viewHashes(doc xmltree.Tree, v View) ([]uint64, error) {
	s := xmltree.NewStore()
	root := s.Copy(doc.Store, doc.Root)
	locs, err := eval.Query(s, eval.RootEnv(root), v.AST)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(locs))
	for i, l := range locs {
		out[i] = xmltree.Hash(s, l)
	}
	return out, nil
}

func hashesEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SampleDocuments generates the ground-truth document sample: several
// seeds at a small scale factor, which empirically suffices to witness
// every dependence of the workload.
func SampleDocuments(n int, factor float64) []xmltree.Tree {
	out := make([]xmltree.Tree, n)
	for i := range out {
		out[i] = GenerateDocument(int64(1000+i*37), factor)
	}
	return out
}
