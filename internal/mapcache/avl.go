package mapcache

// node is an AVL tree node keyed by Orig.
type node struct {
	m           Mapping
	left, right *node
	height      int8
}

func height(n *node) int8 {
	if n == nil {
		return 0
	}
	return n.height
}

func fix(n *node) *node {
	n.height = 1 + max8(height(n.left), height(n.right))
	bf := height(n.left) - height(n.right)
	switch {
	case bf > 1:
		if height(n.left.left) < height(n.left.right) {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case bf < -1:
		if height(n.right.right) < height(n.right.left) {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

func rotateRight(n *node) *node {
	l := n.left
	n.left = l.right
	l.right = n
	n.height = 1 + max8(height(n.left), height(n.right))
	l.height = 1 + max8(height(l.left), height(l.right))
	return l
}

func rotateLeft(n *node) *node {
	r := n.right
	n.right = r.left
	r.left = n
	n.height = 1 + max8(height(n.left), height(n.right))
	r.height = 1 + max8(height(r.left), height(r.right))
	return r
}

func max8(a, b int8) int8 {
	if a > b {
		return a
	}
	return b
}

// newNode takes a node from the freelist, or allocates.
func (t *Table) newNode(m Mapping) *node {
	if f := t.free; f != nil {
		t.free = f.right
		f.m, f.left, f.right, f.height = m, nil, nil, 1
		return f
	}
	return &node{m: m, height: 1}
}

// freeNode returns a detached node to the freelist.
func (t *Table) freeNode(n *node) {
	n.left, n.right = nil, t.free
	t.free = n
}

// recycle returns the whole subtree at n to the freelist.
func (t *Table) recycle(n *node) {
	for n != nil {
		t.recycle(n.left)
		right := n.right
		t.freeNode(n)
		n = right
	}
}

func (t *Table) insert(n *node, m Mapping) *node {
	if n == nil {
		t.size++
		return t.newNode(m)
	}
	switch {
	case m.Orig < n.m.Orig:
		n.left = t.insert(n.left, m)
	case m.Orig > n.m.Orig:
		n.right = t.insert(n.right, m)
	default:
		t.replaced, t.existed = n.m, true
		n.m = m // replace in place
		return n
	}
	return fix(n)
}

// remove deletes orig from the subtree at n, returning the new subtree
// root and the mapping that was removed.
func (t *Table) remove(n *node, orig int64) (*node, Mapping, bool) {
	if n == nil {
		return nil, Mapping{}, false
	}
	var m Mapping
	var removed bool
	switch {
	case orig < n.m.Orig:
		n.left, m, removed = t.remove(n.left, orig)
	case orig > n.m.Orig:
		n.right, m, removed = t.remove(n.right, orig)
	default:
		m, removed = n.m, true
		if n.left == nil {
			r := n.right
			t.freeNode(n)
			return r, m, true
		}
		if n.right == nil {
			l := n.left
			t.freeNode(n)
			return l, m, true
		}
		// Replace with the in-order successor, then unlink the
		// successor's own node (a leaf or one-child case below).
		succ := n.right
		for succ.left != nil {
			succ = succ.left
		}
		n.m = succ.m
		n.right, _, _ = t.remove(n.right, succ.m.Orig)
	}
	return fix(n), m, removed
}
