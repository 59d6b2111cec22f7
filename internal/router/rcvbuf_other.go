//go:build !unix

package router

import (
	"errors"
	"net"
)

// rcvBufOf cannot read the granted buffer size on this platform.
func rcvBufOf(*net.UDPConn) (int, error) { return 0, errors.ErrUnsupported }
