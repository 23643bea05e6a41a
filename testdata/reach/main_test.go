package main

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 4 {
		t.Fatal("OnlyTested() != 4")
	}
}
