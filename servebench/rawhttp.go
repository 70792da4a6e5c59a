package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection to the server. The load
// clients speak the protocol directly: net/http's client spends more CPU
// per request than the server's cache-hit path, and with a closed loop on
// two cores that CPU sits in series with the server's.
type conn struct {
	addr string
	c    net.Conn
	r    *bufio.Reader
	body []byte
}

func newConn(addr string) *conn { return &conn{addr: addr} }

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// do sends one complete request and reads the response. The returned body
// is valid until the next call. After an error the connection is closed and
// the next call dials a new one.
func (c *conn) do(req []byte) (status int, body []byte, err error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, 10*time.Second)
		if err != nil {
			return 0, nil, err
		}
		c.c, c.r = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	if err := c.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked, closing := -1, false, false
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, nil, fmt.Errorf("bad header %q", line)
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil || length < 0 {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(k, []byte("Connection")):
			closing = bytes.EqualFold(v, []byte("close"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		err = c.readChunked()
	case length >= 0:
		c.body = append(c.body, make([]byte, length)...)
		_, err = io.ReadFull(c.r, c.body)
	default:
		err = errors.New("response has neither Content-Length nor chunked encoding")
	}
	if err != nil {
		return 0, nil, err
	}
	if closing {
		c.close()
	}
	return status, c.body, nil
}

// readChunked appends a chunked body to c.body and consumes its trailer.
func (c *conn) readChunked() error {
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, _, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(";"))
		n, err := strconv.ParseUint(string(bytes.TrimSpace(size)), 16, 31)
		if err != nil {
			return fmt.Errorf("bad chunk size %q", line)
		}
		if n == 0 {
			break
		}
		start := len(c.body)
		c.body = append(c.body, make([]byte, n)...)
		if _, err := io.ReadFull(c.r, c.body[start:]); err != nil {
			return err
		}
		if _, err := c.r.Discard(2); err != nil {
			return err
		}
	}
	for { // trailer section, ended by an empty line
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return err
		}
		if len(bytes.TrimRight(line, "\r\n")) == 0 {
			return nil
		}
	}
}
