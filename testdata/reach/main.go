// Command reach is the fixture TestReachScanMatchesObjects runs the
// reachability scan over: each declaration holds one case the scan must get
// right. The scan must report exactly Dead.Window, OnlyTested, Tally.Bumped,
// Tally.Set and Tally.Tested.
package main

import (
	"encoding/json"
	"fmt"
)

// Live.Window is called from main.
type Live struct{}

func (Live) Window() int { return 1 }

// Dead.Window shares a live method's name, but nothing calls it.
type Dead struct{}

func (Dead) Window() int { return 2 }

// Sizer.Size is called from main.
type Sizer interface{ Size() int }

// Box.Size is reached only through Sizer.Size.
type Box struct{}

func (Box) Size() int { return 3 }

// Label.String is called by fmt.
type Label struct{}

func (Label) String() string { return "label" }

// Wide.Size is reached only through the narrower Sizer it is assigned to.
type Wide interface {
	Size() int
	Name() string
}

// Crate is the Wide main assigns. Its embedded Box is a field no selector
// names; embedded fields are not scanned.
type Crate struct{ Box }

func (Crate) Name() string { return "crate" }

// OnlyTested is called from main_test.go alone.
func OnlyTested() int { return 4 }

// Tally's fields are written in main and never read there: Set through = and
// a keyed literal, Bumped through ++. main_test.go alone reads Tested.
type Tally struct {
	Set    int
	Bumped int
	Tested int
}

// Wire is encoded by encoding/json, which reads Code and, through Body,
// Detail.Text; no selector does.
type Wire struct {
	Code int `json:"code"`
	Body Detail
}

// Detail has no json tag of its own; Wire's reaches it.
type Detail struct{ Text string }

// pair is a map key: the map compares a and b though no selector reads them.
type pair struct{ a, b string }

// span is compared with ==, which reads lo and hi.
type span struct{ lo, hi int }

func main() {
	var w Wide = Crate{}
	var s Sizer = w
	_ = Dead{}
	t := &Tally{Set: 1, Tested: 2}
	t.Set = 2
	t.Bumped++
	wire, _ := json.Marshal(Wire{Code: 5, Body: Detail{Text: "ok"}})
	seen := map[pair]int{{a: "x", b: "y"}: 1}
	fmt.Println(Live{}.Window(), s.Size(), w.Name(), Label{}, string(wire), seen, span{1, 2} == span{lo: 1, hi: 2})
}
