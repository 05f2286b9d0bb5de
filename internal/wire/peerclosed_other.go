//go:build !linux

package wire

import "net"

// peerClosed reports false: off Linux a kept connection is not checked
// before reuse, and a request to a restarted peer fails once.
func peerClosed(net.Conn) bool { return false }
