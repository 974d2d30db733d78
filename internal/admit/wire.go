package admit

// The request decoder: one pass over a POST /v1/admit body that validates
// the JSON and fills an AdmitRequest as it goes, with no reflection and no
// intermediate tree. It is held to encoding/json — for every body it
// accepts exactly when a json.Decoder decoding an AdmitRequest from the body
// accepts, and yields a reflect.DeepEqual value (FuzzAdmitRequest is the
// oracle) — so these are encoding/json's rules, not new ones:
//
//   - keys match their field case-insensitively (bytes.EqualFold), unknown
//     keys are skipped whatever their value, and a repeated key decodes
//     again into what the first one left;
//   - null leaves a bool, number, string or object field as it is and sets
//     a slice field to nil; [] is an empty slice, a missing key nil;
//   - an array decodes into the slice's existing elements and backing
//     array (so a repeated key merges element by element);
//   - strings are unescaped, surrogate pairs joined, and invalid UTF-8 or a
//     lone surrogate becomes U+FFFD;
//   - an int field takes only an integer literal that fits an int: a
//     fraction, an exponent or an out-of-range value is an error;
//   - nesting deeper than 10,000 containers is an error;
//   - whatever follows the first value is ignored.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"tightcps/internal/verify"
)

// maxDepth is encoding/json's nesting limit (its scanner's maxNestingDepth).
const maxDepth = 10000

// keepBytes bounds the buffers a pooled decoder keeps between requests: one
// large body must not pin its buffer for the life of the process.
const keepBytes = 1 << 20

var errUnexpectedEnd = errors.New("unexpected end of JSON input")

// The field names of each decoded object, in a fixed order the decoding
// switch statements index.
var (
	requestFields = []string{"apps", "profiles", "config", "async", "timeoutMs"}
	profileFields = []string{"name", "jStar", "r", "twStar", "tdwMinus", "tdwPlus", "granularity"}
	specFields    = []string{"policy", "detTies", "maxStates", "symmetry"}
)

// wireDecoder holds one decode's cursor and the scratch reused across
// requests: the body (read into body through lim, scanned as b), the last
// string read (str, a window of b or of esc, the unescaped-string buffer),
// the open containers of a skipped value, and the first-occurrence array
// buffers (see array).
type wireDecoder struct {
	body  bytes.Buffer
	lim   io.LimitedReader
	b     []byte
	i     int
	depth int
	str   []byte
	esc   []byte
	open  []byte
	ints  []int
	strs  []string
	profs []ProfileJSON
}

var decoders = sync.Pool{New: func() any { return new(wireDecoder) }}

// decodeRequest reads at most maxBody bytes of r and decodes the admission
// request they open into req.
func decodeRequest(r io.Reader, req *AdmitRequest) error {
	d := decoders.Get().(*wireDecoder)
	defer d.release()
	d.body.Reset()
	d.lim = io.LimitedReader{R: r, N: maxBody}
	_, readErr := d.body.ReadFrom(&d.lim)
	d.lim.R = nil
	d.b = d.body.Bytes()
	err := d.request(req)
	if errors.Is(err, errUnexpectedEnd) && readErr != nil {
		return readErr
	}
	return err
}

// release returns the decoder to the pool, dropping buffers a large body
// grew. The array buffers hold no references: array clears what it used.
func (d *wireDecoder) release() {
	if d.body.Cap() > keepBytes {
		d.body = bytes.Buffer{}
	}
	if cap(d.esc) > keepBytes {
		d.esc = nil
	}
	if cap(d.open) > keepBytes {
		d.open = nil
	}
	if cap(d.ints) > keepBytes/8 {
		d.ints = nil
	}
	if cap(d.strs) > keepBytes/16 {
		d.strs = nil
	}
	if cap(d.profs) > keepBytes/96 {
		d.profs = nil
	}
	d.b, d.str = nil, nil
	decoders.Put(d)
}

// request decodes the first value of the body into req: an object, or null,
// which leaves req as it is. Any other value is an error, as encoding/json
// refuses to unmarshal it into a struct.
func (d *wireDecoder) request(req *AdmitRequest) error {
	d.i, d.depth = 0, 0
	d.ws()
	switch d.peek() {
	case '{':
	case 'n':
		return d.literal("null")
	default:
		if err := d.skip(); err != nil {
			return err
		}
		return fmt.Errorf("cannot unmarshal %s into an admission request", kindOf(d.b[0]))
	}
	for more, err := d.object(); ; more, err = d.member() {
		if err != nil || !more {
			return err
		}
		switch fieldOf(d.str, requestFields) {
		case 0:
			err = array(d, &req.Apps, &d.strs, (*wireDecoder).string)
		case 1:
			err = array(d, &req.Profiles, &d.profs, (*wireDecoder).profile)
		case 2:
			err = d.spec(&req.Config)
		case 3:
			err = d.bool(&req.Async)
		case 4:
			err = d.int(&req.TimeoutMs)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// profile decodes one element of "profiles".
func (d *wireDecoder) profile(p *ProfileJSON) error {
	if ok, err := d.into('{', "a profile"); !ok {
		return err
	}
	for more, err := d.object(); ; more, err = d.member() {
		if err != nil || !more {
			return err
		}
		switch fieldOf(d.str, profileFields) {
		case 0:
			err = d.string(&p.Name)
		case 1:
			err = d.int(&p.JStar)
		case 2:
			err = d.int(&p.R)
		case 3:
			err = d.int(&p.TwStar)
		case 4:
			err = array(d, &p.TdwMinus, &d.ints, (*wireDecoder).int)
		case 5:
			err = array(d, &p.TdwPlus, &d.ints, (*wireDecoder).int)
		case 6:
			err = d.int(&p.Granularity)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// spec decodes "config".
func (d *wireDecoder) spec(s *verify.Spec) error {
	if ok, err := d.into('{', "a config"); !ok {
		return err
	}
	for more, err := d.object(); ; more, err = d.member() {
		if err != nil || !more {
			return err
		}
		switch fieldOf(d.str, specFields) {
		case 0:
			err = d.string(&s.Policy)
		case 1:
			err = d.bool(&s.DetTies)
		case 2:
			err = d.int(&s.MaxStates)
		case 3:
			err = d.bool(&s.Symmetry)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// fieldOf returns the index of key in names, matched as encoding/json
// matches a key to a field, or −1.
func fieldOf(key []byte, names []string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

// into reports whether the value at the cursor opens a container of kind
// open ('{' or '['); null is consumed and reported as false with no error,
// which leaves the target as it is. Any other value is a type error naming
// what the field wanted.
func (d *wireDecoder) into(open byte, want string) (bool, error) {
	switch d.peek() {
	case open:
		return true, nil
	case 'n':
		return false, d.literal("null")
	}
	return false, d.mismatch(want)
}

// mismatch is the error for a value of the wrong kind, or the syntax error
// if the cursor is not at a value at all.
func (d *wireDecoder) mismatch(want string) error {
	c := d.peek()
	switch c {
	case '{', '[', '"', 't', 'f', 'n', '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		return fmt.Errorf("cannot unmarshal %s into %s at offset %d", kindOf(c), want, d.i)
	}
	return d.syntax("looking for beginning of value")
}

// kindOf names the JSON kind of a value by its first byte.
func kindOf(c byte) string {
	switch c {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	case 'n':
		return "null"
	}
	return "number"
}

// array decodes a JSON array (or null) into *dst element by element,
// exactly as encoding/json does: elements land in the slice's existing
// elements and backing array, the slice is cut to the array's length, []
// is a fresh empty slice and null is nil. A slice with no backing array —
// every slice the first time its key appears — is decoded into the
// decoder's buffer buf and copied out at its final length, so the result
// costs one allocation whatever the array's length; a backing array past
// that length holds zeros either way, so no later decode can tell.
func array[T any](d *wireDecoder, dst *[]T, buf *[]T, elem func(*wireDecoder, *T) error) error {
	if ok, err := d.into('[', "an array"); !ok {
		if err == nil {
			*dst = nil
		}
		return err
	}
	if err := d.push(); err != nil {
		return err
	}
	s, fresh := *dst, cap(*dst) == 0
	if fresh {
		s = (*buf)[:0]
	}
	n, err := 0, error(nil)
	d.ws()
	if d.peek() == ']' {
		d.i++
	} else {
		for {
			if n == len(s) {
				if n < cap(s) {
					s = s[:n+1]
				} else {
					var zero T
					s = append(s, zero)
				}
			}
			if err = elem(d, &s[n]); err != nil {
				break
			}
			n++
			var c byte
			if c, err = d.next(']'); err != nil || c == ']' {
				break
			}
		}
	}
	d.depth--
	if fresh {
		if err == nil {
			*dst = make([]T, n)
			copy(*dst, s)
		}
		clear(s)
		*buf = s[:0]
		return err
	}
	if n == 0 {
		s = []T{}
	}
	*dst = s[:n]
	return err
}

// object consumes the '{' at the cursor and reads its first key into
// d.str; more is false for an empty object.
func (d *wireDecoder) object() (more bool, err error) {
	if err := d.push(); err != nil {
		return false, err
	}
	d.ws()
	if d.peek() == '}' {
		d.i++
		d.depth--
		return false, nil
	}
	return true, d.key()
}

// member reads past the value just decoded to the next key of the object
// (into d.str), or past its closing brace (more false).
func (d *wireDecoder) member() (more bool, err error) {
	if c, err := d.next('}'); err != nil || c == '}' {
		d.depth--
		return false, err
	}
	return true, d.key()
}

// key reads one object key and its colon, leaving the cursor at the value.
func (d *wireDecoder) key() error {
	d.ws()
	if d.peek() != '"' {
		return d.syntax("looking for beginning of object key string")
	}
	if err := d.quoted(); err != nil {
		return err
	}
	d.ws()
	if d.peek() != ':' {
		return d.syntax("after object key")
	}
	d.i++
	d.ws()
	return nil
}

// next consumes the ',' or the closing byte that must follow a container's
// member, and returns it; after a ',' it skips to the next member.
func (d *wireDecoder) next(close byte) (byte, error) {
	d.ws()
	c := d.peek()
	if c != ',' && c != close {
		if close == '}' {
			return 0, d.syntax("after object key:value pair")
		}
		return 0, d.syntax("after array element")
	}
	d.i++
	if c == ',' {
		d.ws()
	}
	return c, nil
}

// push opens the container at the cursor.
func (d *wireDecoder) push() error {
	if d.depth++; d.depth > maxDepth {
		return fmt.Errorf("exceeded max depth at offset %d", d.i)
	}
	d.i++
	return nil
}

// skip validates one value of any kind and moves past it, holding its open
// containers in d.open rather than on the call stack.
func (d *wireDecoder) skip() error {
	open := d.open[:0]
	defer func() { d.open = open }()
	for {
		// At the start of a value.
		switch c := d.peek(); c {
		case '{', '[':
			if err := d.push(); err != nil {
				return err
			}
			open = append(open, c)
			d.ws()
			if d.peek() == c+2 { // '}' and ']' sit two above their openers
				d.i++
				d.depth--
				open = open[:len(open)-1]
				break
			}
			if c == '{' {
				if err := d.key(); err != nil {
					return err
				}
			}
			continue
		case '"':
			if err := d.quoted(); err != nil {
				return err
			}
		case 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			if _, _, err := d.number(); err != nil {
				return err
			}
		}
		// After a value: close containers until one continues.
		for {
			if len(open) == 0 {
				return nil
			}
			top := open[len(open)-1]
			c, err := d.next(top + 2)
			if err != nil {
				return err
			}
			if c == ',' {
				if top == '{' {
					if err := d.key(); err != nil {
						return err
					}
				}
				break
			}
			d.depth--
			open = open[:len(open)-1]
		}
	}
}

// int decodes an int field: an integer literal that fits an int, or null.
func (d *wireDecoder) int(p *int) error {
	switch c := d.peek(); {
	case c == '-' || '0' <= c && c <= '9':
		start := d.i
		v, ok, err := d.number()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("cannot unmarshal number %s into an int at offset %d", d.b[start:d.i], start)
		}
		*p = v
		return nil
	case c == 'n':
		return d.literal("null")
	}
	return d.mismatch("an int")
}

// bool decodes a bool field: true, false or null.
func (d *wireDecoder) bool(p *bool) error {
	switch d.peek() {
	case 't':
		if err := d.literal("true"); err != nil {
			return err
		}
		*p = true
		return nil
	case 'f':
		if err := d.literal("false"); err != nil {
			return err
		}
		*p = false
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("a bool")
}

// string decodes a string field or null.
func (d *wireDecoder) string(p *string) error {
	switch d.peek() {
	case '"':
		if err := d.quoted(); err != nil {
			return err
		}
		*p = string(d.str)
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("a string")
}

// number scans a JSON number. ok reports whether it is an integer literal
// that fits an int — what encoding/json asks of an int field.
func (d *wireDecoder) number() (v int, ok bool, err error) {
	b, i := d.b, d.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var u uint64
	over := false
	switch {
	case i == len(b):
		d.i = i
		return 0, false, errUnexpectedEnd
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			c := uint64(b[i] - '0')
			over = over || u > (math.MaxUint64-c)/10
			u = u*10 + c
		}
	default:
		d.i = i
		return 0, false, d.syntax("in numeric literal")
	}
	integral := true
	if i < len(b) && b[i] == '.' {
		integral = false
		if i, err = d.digits(i + 1); err != nil {
			return 0, false, err
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integral = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i, err = d.digits(i); err != nil {
			return 0, false, err
		}
	}
	d.i = i
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	if !integral || over || u > limit {
		return 0, false, nil
	}
	if neg {
		return int(-u), true, nil
	}
	return int(u), true, nil
}

// digits scans the one or more digits a fraction or exponent must hold,
// starting at i, and returns the index past them.
func (d *wireDecoder) digits(i int) (int, error) {
	start := i
	for i < len(d.b) && '0' <= d.b[i] && d.b[i] <= '9' {
		i++
	}
	if i == start {
		d.i = i
		if i == len(d.b) {
			return i, errUnexpectedEnd
		}
		return i, d.syntax("in numeric literal")
	}
	return i, nil
}

// quoted scans the string at the cursor and leaves its unescaped bytes in
// d.str — a window of the body when it holds no escape and is valid UTF-8.
func (d *wireDecoder) quoted() error {
	d.i++
	start, plain, ascii := d.i, true, true
	for i := d.i; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			d.i = i + 1
			if raw := d.b[start:i]; plain && (ascii || utf8.Valid(raw)) {
				d.str = raw
			} else {
				d.unescape(raw)
			}
			return nil
		case c == '\\':
			plain = false
			i++
			if i == len(d.b) {
				break
			}
			switch d.b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 1; k <= 4; k++ {
					if i+k == len(d.b) {
						d.i = i + k
						return errUnexpectedEnd
					}
					if !isHex(d.b[i+k]) {
						d.i = i + k
						return d.syntax("in \\u hexadecimal character escape")
					}
				}
				i += 4
			default:
				d.i = i
				return d.syntax("in string escape code")
			}
		case c < ' ':
			d.i = i
			return d.syntax("in string literal")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	d.i = len(d.b)
	return errUnexpectedEnd
}

// unescape writes the value of a validated string body s to d.str, by
// encoding/json's rules: escapes decoded, surrogate pairs joined, a lone
// surrogate or an invalid UTF-8 byte replaced by U+FFFD.
func (d *wireDecoder) unescape(s []byte) {
	b := d.esc[:0]
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(s[r+2:])
				r += 6
				if utf16.IsSurrogate(rr) {
					rr1 := rune(-1)
					if r+6 <= len(s) && s[r] == '\\' && s[r+1] == 'u' {
						rr1 = hex4(s[r+2:])
					}
					if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
						b = utf8.AppendRune(b, dec)
						r += 6
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default:
				b = append(b, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	d.esc, d.str = b, b
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// hex4 reads the four validated hex digits of a \u escape.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// literal consumes the literal word (true, false or null) at the cursor.
func (d *wireDecoder) literal(word string) error {
	for k := 0; k < len(word); k++ {
		if d.i == len(d.b) {
			return errUnexpectedEnd
		}
		if d.b[d.i] != word[k] {
			return d.syntax("in literal " + word + " (expecting '" + word[k:k+1] + "')")
		}
		d.i++
	}
	return nil
}

// ws skips JSON whitespace.
func (d *wireDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// peek returns the byte at the cursor, or 0 at the end of the body (no JSON
// value or separator starts with a NUL byte).
func (d *wireDecoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// syntax is the error for the byte at the cursor, or the end of the body.
func (d *wireDecoder) syntax(context string) error {
	if d.i >= len(d.b) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.b[d.i], context, d.i)
}
