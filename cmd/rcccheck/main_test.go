package main

import "testing"

// TestParseMenuRange: a delay past uint32 is an error, not a silently
// truncated delay.
func TestParseMenuRange(t *testing.T) {
	if got, err := parseMenu("1, 420,4294967295", 32); err != nil || len(got) != 3 || got[2] != 1<<32-1 {
		t.Fatalf("parseMenu of in-range delays = %v, %v", got, err)
	}
	for _, bad := range []string{"1,4294967296", "1,-2", "1,,2", "x"} {
		if got, err := parseMenu(bad, 32); err == nil {
			t.Errorf("parseMenu(%q) = %v, want an error", bad, got)
		}
	}
	if _, err := parseMenu("1099511627776", 64); err != nil {
		t.Errorf("jitter menu entry within uint64 rejected by the parser: %v", err)
	}
}
