package main

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 4 {
		t.Fatal("OnlyTested() != 4")
	}
	if (&Tally{Tested: 3}).Tested != 3 {
		t.Fatal("Tally.Tested != 3")
	}
}
