package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"xqindep/internal/guard"
)

// limitedReader errors once more than max bytes have been read,
// instead of silently truncating like io.LimitReader.
type limitedReader struct {
	r    io.Reader
	left int
}

func (l *limitedReader) Read(p []byte) (int, error) {
	if l.left <= 0 {
		return 0, fmt.Errorf("xmltree: input exceeds the size limit")
	}
	if len(p) > l.left {
		p = p[:l.left]
	}
	n, err := l.r.Read(p)
	l.left -= n
	return n, err
}

// Parse reads an XML document from r into a fresh store and returns
// the resulting tree. Attributes, comments, processing instructions
// and whitespace-only text between elements are discarded: the
// paper's data model has element and text nodes only, and its
// benchmark rewriting removes attribute use.
//
// The input may hold at most guard.DefaultMaxParseInput bytes, nest
// elements at most guard.DefaultMaxParseDepth deep and yield at most
// guard.DefaultMaxNodes nodes.
func Parse(r io.Reader) (Tree, error) {
	return parse(r, guard.DefaultMaxParseDepth, guard.DefaultMaxParseInput, guard.DefaultMaxNodes)
}

// parse is Parse under explicit bounds: maxInput bounds the raw input
// size in bytes, maxDepth the element nesting depth and maxNodes the
// total node count of the resulting tree.
func parse(r io.Reader, maxDepth, maxInput, maxNodes int) (Tree, error) {
	dec := xml.NewDecoder(&limitedReader{r: r, left: maxInput})
	s := NewStore()
	var stack []Loc
	var root Loc
	nodes := 0
	addNode := func() error {
		nodes++
		if nodes > maxNodes {
			return fmt.Errorf("xmltree: parse: document has more than %d nodes", maxNodes)
		}
		return nil
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Tree{}, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if len(stack) >= maxDepth {
				return Tree{}, fmt.Errorf("xmltree: parse: element nesting exceeds the limit of %d", maxDepth)
			}
			if err := addNode(); err != nil {
				return Tree{}, err
			}
			el := s.NewElement(t.Name.Local)
			if len(stack) == 0 {
				if root != NilLoc {
					return Tree{}, fmt.Errorf("xmltree: parse: multiple root elements")
				}
				root = el
			} else {
				s.AppendChild(stack[len(stack)-1], el)
			}
			stack = append(stack, el)
		case xml.EndElement:
			if len(stack) == 0 {
				return Tree{}, fmt.Errorf("xmltree: parse: unbalanced end tag %q", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue // ignore text outside the root
			}
			txt := string(t)
			if strings.TrimSpace(txt) == "" {
				continue
			}
			if err := addNode(); err != nil {
				return Tree{}, err
			}
			s.AppendChild(stack[len(stack)-1], s.NewText(txt))
		}
	}
	if root == NilLoc {
		return Tree{}, fmt.Errorf("xmltree: parse: empty document")
	}
	if len(stack) != 0 {
		return Tree{}, fmt.Errorf("xmltree: parse: unclosed elements")
	}
	return NewTree(s, root), nil
}

// ParseString is Parse over an in-memory document.
func ParseString(doc string) (Tree, error) { return Parse(strings.NewReader(doc)) }

// MustParse is ParseString, panicking on error; intended for tests and
// examples with literal documents.
func MustParse(doc string) Tree {
	t, err := ParseString(doc)
	if err != nil {
		panic(err)
	}
	return t
}
