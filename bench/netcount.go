package main

import (
	"net"
	"sync/atomic"
)

// countingListener wraps a listener so every accepted connection adds the
// bytes it reads and writes to the listener's totals. The RPC workers sit
// behind one, so bytes read are request bytes and bytes written are reply
// bytes, counted without touching the program.
type countingListener struct {
	net.Listener
	read, written atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.written.Add(int64(n))
	return n, err
}
