package wire

import (
	"errors"
	"net"
	"syscall"
)

// peerClosed reports whether the far end of a kept TCP connection has
// already hung up — a restarted peer's FIN or reset is queued on the socket —
// by peeking at it without blocking or consuming anything. A connection that
// is not a socket (net.Pipe, a fault-injecting wrapper) reports false.
func peerClosed(conn net.Conn) bool {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return false
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	closed := false
	_ = raw.Read(func(fd uintptr) bool {
		var b [1]byte
		n, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		closed = n == 0 && err == nil || errors.Is(err, syscall.ECONNRESET)
		return true // never wait for data
	})
	return closed
}
