// Firing and non-firing fixtures for frozenartifact: compiled schemas
// and the rows their accessors expose are immutable outside the home
// packages (dtd, chain, bitset).
package cdag

import (
	"example.com/fix/internal/bitset"
	"example.com/fix/internal/dtd"
)

func deface(c *dtd.Compiled) {
	c.Label = "patched" // want "write to field Label of a frozen artifact"
}

// A local aliasing an accessor view is still the artifact's memory.
func pokeRow(c *dtd.Compiled) {
	kids := c.Children(0)
	kids[0] = 9 // want "write through an index of a frozen artifact view"
}

func raiseBit(c *dtd.Compiled) {
	c.Reach(0).Add(3) // want "mutates a bitset row of a frozen artifact"
}

func growRow(c *dtd.Compiled) []int {
	return append(c.Children(0), 1) // want "append to a slice view of a frozen artifact"
}

// Reading is what the views are for.
func readOnly(c *dtd.Compiled) bool {
	return c.Reach(0).Has(3)
}

// Clone returns fresh memory: the taint breaks and edits are legal.
func cloneThenEdit(c *dtd.Compiled) bitset.Set {
	fresh := c.Reach(0).Clone()
	fresh.Add(3)
	return fresh
}

// The slab helpers write in place: a row view stays the artifact's
// memory whether the helper is called on the accessor or on a local.
func orIntoRow(c *dtd.Compiled, t bitset.Set) int {
	return c.Reach(0).OrCount(t) // want "OrCount mutates a bitset row of a frozen artifact"
}

func andIntoRow(c *dtd.Compiled, a, b bitset.Set) {
	row := c.Reach(0)
	row.AndOf(a, b) // want "AndOf mutates a bitset row of a frozen artifact"
}

func clearRow(c *dtd.Compiled) {
	c.Reach(0).Clear() // want "Clear mutates a bitset row of a frozen artifact"
}

// On a Clone the helpers are legal, and reading a row as their
// operand never writes it.
func helpersOnClone(c *dtd.Compiled, a bitset.Set) bitset.Set {
	fresh := c.Reach(0).Clone()
	fresh.AndOf(fresh, a)
	fresh.OrCount(c.Reach(1))
	fresh.Clear()
	return fresh
}

// Locally built sets are nobody's artifact.
func scratch() bitset.Set {
	s := make(bitset.Set, 4)
	s.Add(1)
	return s
}
