// Command reach is the fixture TestReachScanMatchesObjects runs the
// reachability scan over: each declaration holds one case the scan must get
// right. The scan must report exactly Dead.Window and OnlyTested.
package main

import "fmt"

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

// Crate is the Wide main assigns.
type Crate struct{ Box }

func (Crate) Name() string { return "crate" }

// OnlyTested is called from main_test.go alone.
func OnlyTested() int { return 4 }

func main() {
	var w Wide = Crate{}
	var s Sizer = w
	_ = Dead{}
	fmt.Println(Live{}.Window(), s.Size(), w.Name(), Label{})
}
