package relational

import "sort"

// btree is a B-tree keyed by int64 mapping to row-id lists, backing ordered
// (range-scan) indexes on Int64/Timestamp columns. Order 64 keeps nodes
// cache-friendly without deep trees.
const btreeOrder = 64 // max children per interior node; max keys = order-1

type btreeNode struct {
	keys     []int64
	vals     [][]int32 // row ids per key (duplicates allowed), leaf only
	children []*btreeNode
	leaf     bool
}

func newBTreeNode(leaf bool) *btreeNode {
	n := &btreeNode{leaf: leaf}
	n.keys = make([]int64, 0, btreeOrder-1)
	if leaf {
		n.vals = make([][]int32, 0, btreeOrder-1)
	} else {
		n.children = make([]*btreeNode, 0, btreeOrder)
	}
	return n
}

// btree is the tree root.
type btree struct {
	root *btreeNode
}

func newBTree() *btree { return &btree{root: newBTreeNode(true)} }

// Insert adds rowID under key.
func (t *btree) Insert(key int64, rowID int32) {
	if t.isFull(t.root) {
		old := t.root
		t.root = newBTreeNode(false)
		t.root.children = append(t.root.children, old)
		t.splitChild(t.root, 0)
	}
	t.insertNonFull(t.root, key, rowID)
}

func (t *btree) isFull(n *btreeNode) bool { return len(n.keys) == btreeOrder-1 }

// splitChild splits the full child at index i of parent p.
func (t *btree) splitChild(p *btreeNode, i int) {
	child := p.children[i]
	mid := (btreeOrder - 1) / 2
	right := newBTreeNode(child.leaf)
	midKey := child.keys[mid]

	if child.leaf {
		// Leaves keep the mid key (B+-tree style duplication upward).
		right.keys = append(right.keys, child.keys[mid:]...)
		right.vals = append(right.vals, child.vals[mid:]...)
		child.keys = child.keys[:mid]
		child.vals = child.vals[:mid]
	} else {
		right.keys = append(right.keys, child.keys[mid+1:]...)
		right.children = append(right.children, child.children[mid+1:]...)
		child.keys = child.keys[:mid]
		child.children = child.children[:mid+1]
	}

	p.keys = append(p.keys, 0)
	copy(p.keys[i+1:], p.keys[i:])
	p.keys[i] = midKey
	p.children = append(p.children, nil)
	copy(p.children[i+2:], p.children[i+1:])
	p.children[i+1] = right
}

func (t *btree) insertNonFull(n *btreeNode, key int64, rowID int32) {
	for {
		if n.leaf {
			i := sort.Search(len(n.keys), func(j int) bool { return n.keys[j] >= key })
			if i < len(n.keys) && n.keys[i] == key {
				n.vals[i] = append(n.vals[i], rowID)
				return
			}
			n.keys = append(n.keys, 0)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = key
			n.vals = append(n.vals, nil)
			copy(n.vals[i+1:], n.vals[i:])
			n.vals[i] = []int32{rowID}
			return
		}
		// Interior: keys[j] is the smallest key of children[j+1].
		i := sort.Search(len(n.keys), func(j int) bool { return n.keys[j] > key })
		if t.isFull(n.children[i]) {
			t.splitChild(n, i)
			if key >= n.keys[i] {
				i++
			}
		}
		n = n.children[i]
	}
}

// Range calls fn for every (key, rowids) with lo <= key <= hi, in ascending
// key order, stopping early if fn returns false.
func (t *btree) Range(lo, hi int64, fn func(key int64, rows []int32) bool) {
	t.rangeNode(t.root, lo, hi, fn)
}

func (t *btree) rangeNode(n *btreeNode, lo, hi int64, fn func(int64, []int32) bool) bool {
	if n.leaf {
		i := sort.Search(len(n.keys), func(j int) bool { return n.keys[j] >= lo })
		for ; i < len(n.keys) && n.keys[i] <= hi; i++ {
			if !fn(n.keys[i], n.vals[i]) {
				return false
			}
		}
		return true
	}
	i := sort.Search(len(n.keys), func(j int) bool { return n.keys[j] > lo })
	for ; i < len(n.children); i++ {
		if !t.rangeNode(n.children[i], lo, hi, fn) {
			return false
		}
		if i < len(n.keys) && n.keys[i] > hi {
			break
		}
	}
	return true
}
