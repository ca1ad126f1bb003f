package main

import (
	"bytes"
	"strings"
	"testing"
)

// A count below 1 is a usage error naming its flag, caught before any
// panel runs: no panic from the R-benchmark generators or from a
// negative slice length, and no Figure 3.b against an empty ground
// truth, which would call every pair truly independent.
func TestCountBelowOneExitsUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "3d", "-d-ns", "0"},
		{"-fig", "3d", "-d-ms", "0"},
		{"-fig", "3d", "-d-ns", "1,-3"},
		{"-fig", "3b", "-truth-docs", "-2"},
		{"-fig", "3b", "-truth-docs", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("xqbench %s: exit %d, want 2", strings.Join(args, " "), code)
		}
		if !strings.Contains(stderr.String(), args[2]) || stdout.Len() != 0 {
			t.Errorf("xqbench %s: stderr %q and stdout %q, want only a message naming %s",
				strings.Join(args, " "), stderr.String(), stdout.String(), args[2])
		}
	}
}
