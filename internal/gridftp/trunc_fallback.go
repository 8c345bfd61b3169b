//go:build !linux || (!amd64 && !arm64) || dstune_nozerocopy

package gridftp

import "net"

// discardPayload reports that truncating receives are unavailable, so
// both drains keep their portable copying paths. Paired with the
// dstune_nozerocopy build tag this also gives the A/B benchmark a
// build with every kernel fast path off.
func discardPayload(net.Conn, int64, func(int64)) (bool, error) {
	return false, nil
}
