package fleet

import "dicer/internal/box"

// BoxOf exposes a node's box to the external tests.
func BoxOf(n *Node) *box.Box { return &n.box }
