//go:build unix

package router

import (
	"net"
	"syscall"
)

// rcvBufOf reads back the socket receive buffer size the kernel granted.
func rcvBufOf(conn *net.UDPConn) (int, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return 0, err
	}
	var n int
	var serr error
	if err := rc.Control(func(fd uintptr) {
		n, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil {
		return 0, err
	}
	return n, serr
}
