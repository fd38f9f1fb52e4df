package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrors: what qbench does not have is refused with exit status 2
// before anything runs — the flags and experiments that used to live here
// must not silently run something else.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-nofuse"}, "flag provided but not defined: -nofuse"},
		{[]string{"-batch-gate", "1.3", "batch"}, "flag provided but not defined: -batch-gate"},
		{[]string{"batch"}, `unknown experiment "batch"`},
		{[]string{"-sf", "0.01", "table1", "cache"}, `unknown experiment "cache"`},
		{[]string{"-arch", "mips", "table1"}, `unknown arch "mips"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("qbench %v: exit status %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.msg) {
			t.Errorf("qbench %v: stderr %q does not say %q", c.args, stderr.String(), c.msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("qbench %v: ran and printed %q", c.args, stdout.String())
		}
	}
}
