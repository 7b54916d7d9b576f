package serve

import (
	"fmt"
	"io"
)

// readFullBody drains r into buf, reusing its capacity; it grows by
// doubling (via append) only when the body outruns what previous requests
// already paid for.
func readFullBody(r io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// nextJSONValue splits the first complete top-level JSON value off buf,
// returning it and the remainder. It only tracks value boundaries (strings
// with escapes, brace/bracket depth); the caller's json.Unmarshal does the
// real validation. io.EOF means only whitespace remained.
func nextJSONValue(buf []byte) (val, rest []byte, err error) {
	i := 0
	for i < len(buf) && isJSONSpace(buf[i]) {
		i++
	}
	if i == len(buf) {
		return nil, nil, io.EOF
	}
	start := i
	depth := 0
	inStr, esc := false, false
	for ; i < len(buf); i++ {
		c := buf[i]
		if inStr {
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				inStr = false
				if depth == 0 {
					return buf[start : i+1], buf[i+1:], nil
				}
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '{', '[':
			depth++
		case '}', ']':
			depth--
			if depth == 0 {
				return buf[start : i+1], buf[i+1:], nil
			}
			if depth < 0 {
				return nil, nil, fmt.Errorf("serve: unbalanced %q at offset %d", c, i)
			}
		default:
			// Bare literal (number, true/false/null) at top level: it ends at
			// the first whitespace. Unmarshal rejects anything malformed.
			if depth == 0 && isJSONSpace(c) {
				return buf[start:i], buf[i:], nil
			}
		}
	}
	if depth != 0 || inStr {
		return nil, nil, io.ErrUnexpectedEOF
	}
	return buf[start:], nil, nil
}

func isJSONSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}
