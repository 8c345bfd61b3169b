//go:build linux && (amd64 || arm64) && !dstune_nozerocopy

package gridftp

import (
	"io"
	"net"
	"syscall"
)

// truncDrain returns conn's truncating drain, or nil for a connection
// that is not an unwrapped TCP connection. The drain consumes n payload
// bytes without copying them into userspace: Linux TCP treats MSG_TRUNC
// on recvfrom(2) with a null buffer as "drop up to len bytes from the
// receive queue", releasing the socket-buffer pages in kernel. For a
// discard-mode drain this removes the receiver's only memory pass,
// which is what lets a sendfile sender run copy-free end to end — the
// sender queues page-cache references and the receiver frees them
// without either side touching the bytes. It is built once per
// connection, so a frame's drain allocates nothing.
//
// credit is invoked with each slab dropped, so byte accounting and
// the server activity clock advance exactly as the copying drain's
// would, including for a stream that dies mid-payload. The drain
// returns ok=false — with nothing consumed and credit never called —
// when the kernel rejects the first truncating recv, so the caller can
// fall back to the copying drain; any later error is returned as err
// with the preceding slabs already credited (receiver truth is what the
// kernel actually handed over).
func truncDrain(conn net.Conn, credit func(int64)) func(n int64) (ok bool, err error) {
	tcp, isTCP := conn.(*net.TCPConn)
	if !isTCP {
		return nil
	}
	rc, rcErr := tcp.SyscallConn()
	if rcErr != nil {
		return nil
	}
	var n, done int64
	var err error
	unsupported := false
	recv := func(fd uintptr) bool {
		for n > 0 {
			r, _, errno := syscall.Syscall6(syscall.SYS_RECVFROM, fd, 0, uintptr(n), syscall.MSG_TRUNC, 0, 0)
			if errno == syscall.EAGAIN {
				return false // wait for readability, then retry
			}
			if errno != 0 {
				if done == 0 && (errno == syscall.EINVAL || errno == syscall.EOPNOTSUPP) {
					unsupported = true
					return true
				}
				err = errno
				return true
			}
			if r == 0 {
				err = io.EOF
				return true
			}
			credit(int64(r))
			done += int64(r)
			n -= int64(r)
		}
		return true
	}
	return func(want int64) (bool, error) {
		n, done, err, unsupported = want, 0, nil, false
		ioErr := rc.Read(recv)
		if unsupported {
			return false, nil
		}
		if err == nil {
			err = ioErr
		}
		return true, err
	}
}
