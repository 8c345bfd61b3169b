//go:build !linux || (!amd64 && !arm64) || dstune_nozerocopy

package gridftp

import "net"

// truncDrain reports that truncating receives are unavailable, so the
// drain keeps its portable copying path. Paired with the
// dstune_nozerocopy build tag this also gives the A/B benchmark a
// build with every kernel fast path off.
func truncDrain(net.Conn, func(int64)) func(int64) (bool, error) {
	return nil
}
