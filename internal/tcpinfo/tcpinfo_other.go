//go:build !linux || 386

package tcpinfo

import "net"

// sample is the portable no-op: platforms without TCP_INFO, and
// linux/386, where getsockopt is no system call of its own (it goes
// through socketcall), report no sample, and callers fall back to
// epoch-level throughput alone.
func sample(net.Conn) (Info, bool) { return Info{}, false }
