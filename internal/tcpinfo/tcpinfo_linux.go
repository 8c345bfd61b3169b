//go:build linux && !386

package tcpinfo

import (
	"encoding/binary"
	"net"
	"syscall"
	"time"
	"unsafe"
)

// tcpInfoBuf is sized for the modern struct tcp_info (kernel 4.9+,
// which added delivery_rate at offset 160). The kernel truncates to
// whatever it supports and returns the written length, so older
// kernels still fill the classic prefix.
const tcpInfoBuf = 232

// Offsets into the kernel's struct tcp_info. The leading eight fields
// are u8s, everything from tcpi_rto on is u32 (then u64 from
// pacing_rate at 152). These offsets are ABI: the kernel only ever
// appends fields.
const (
	offRTT          = 68  // tcpi_rtt, microseconds (u32)
	offRTTVar       = 72  // tcpi_rttvar, microseconds (u32)
	offSndCwnd      = 80  // tcpi_snd_cwnd, segments (u32)
	offTotalRetrans = 100 // tcpi_total_retrans (u32)
	offDeliveryRate = 160 // tcpi_delivery_rate, bytes/s (u64, kernel 4.9+)
)

// sample implements Sample on Linux: it borrows the connection's file
// descriptor through the RawConn Control hook (no dup, no ownership
// transfer) and issues one getsockopt(IPPROTO_TCP, TCP_INFO).
func sample(conn net.Conn) (Info, bool) {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return Info{}, false
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return Info{}, false
	}
	var buf [tcpInfoBuf]byte
	var n uint32
	var serr syscall.Errno
	cerr := raw.Control(func(fd uintptr) {
		n = tcpInfoBuf
		_, _, serr = syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd,
			syscall.IPPROTO_TCP, syscall.TCP_INFO,
			uintptr(unsafe.Pointer(&buf[0])), uintptr(unsafe.Pointer(&n)), 0)
	})
	if cerr != nil || serr != 0 {
		return Info{}, false
	}
	// Guard every field by the length the kernel actually wrote, so an
	// old kernel's short struct never reads past valid bytes.
	if n < offSndCwnd+4 {
		return Info{}, false
	}
	u32 := func(off uint32) uint32 { return binary.NativeEndian.Uint32(buf[off : off+4]) }
	info := Info{
		RTT:     time.Duration(u32(offRTT)) * time.Microsecond,
		RTTVar:  time.Duration(u32(offRTTVar)) * time.Microsecond,
		SndCwnd: u32(offSndCwnd),
	}
	if n >= offTotalRetrans+4 {
		info.TotalRetrans = u32(offTotalRetrans)
	}
	if n >= offDeliveryRate+8 {
		info.DeliveryRate = binary.NativeEndian.Uint64(buf[offDeliveryRate : offDeliveryRate+8])
	}
	return info, true
}
