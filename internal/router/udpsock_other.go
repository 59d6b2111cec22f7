//go:build !linux || 386

package router

import "net"

// newSock uses the net package's calls: the raw path needs Linux's
// recvmsg/sendto syscall numbers (linux/386 multiplexes them through
// socketcall).
func newSock(conn *net.UDPConn) datagramSock { return stdSock{conn} }
