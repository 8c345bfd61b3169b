//go:build linux && (amd64 || arm64) && !dstune_nozerocopy

package gridftp

import (
	"io"
	"net"
	"syscall"
)

// discardPayload consumes n payload bytes from conn without copying
// them into userspace: Linux TCP treats MSG_TRUNC on recvfrom(2) with
// a null buffer as "drop up to len bytes from the receive queue",
// releasing the socket-buffer pages in kernel. For the bulk drain and
// a discard-mode framed drain this removes the receiver's only memory
// pass, which is what lets a sendfile sender run copy-free end to end — the sender
// queues page-cache references and the receiver frees them without
// either side touching the bytes.
//
// credit is invoked with each slab dropped, so byte accounting and
// the server activity clock advance exactly as the copying drain's
// would, including for a stream that dies mid-payload. Returns
// ok=false — with nothing consumed and credit never called — when the
// kernel rejects the first truncating recv, so the caller can fall
// back to the copying drain; any later error is returned as err with
// the preceding slabs already credited (receiver truth is what the
// kernel actually handed over).
func discardPayload(conn net.Conn, n int64, credit func(int64)) (ok bool, err error) {
	tcp, isTCP := conn.(*net.TCPConn)
	if !isTCP {
		return false, nil
	}
	rc, rcErr := tcp.SyscallConn()
	if rcErr != nil {
		return false, nil
	}
	var done int64
	unsupported := false
	ioErr := rc.Read(func(fd uintptr) bool {
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
	})
	if unsupported {
		return false, nil
	}
	if err == nil {
		err = ioErr
	}
	return true, err
}
