package trace

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSpec builds a Generator from a compact textual description, the
// format used by cmd/dicer-cachesim:
//
//	loop:<size>              sequential loop over <size> bytes
//	stream                   never-reused streaming accesses
//	strided:<size>:<stride>  strided sweep
//	zipf:<size>[:<skew>]     zipf-popularity random accesses (default 1.0)
//	mix(a@w,b@w,...)         weighted mixture of sub-specs
//
// Sizes accept k/m/g suffixes (KiB/MiB/GiB): "loop:512k", "zipf:8m:0.9",
// "mix(loop:1m@0.5,stream@0.2,zipf:4m:1.2@0.3)".
//
// Each distinct sub-generator is placed in its own address region so
// mixtures never alias.
func ParseSpec(spec string, seed uint64) (Generator, error) {
	p := &specParser{seed: seed}
	return p.parse(strings.TrimSpace(spec))
}

type specParser struct {
	seed   uint64
	region uint64 // distinct base region per component
}

// base returns the next non-overlapping base address (1 TiB apart).
func (p *specParser) base() uint64 {
	p.region++
	return p.region << 40
}

func (p *specParser) parse(spec string) (Generator, error) {
	if spec == "" {
		return nil, fmt.Errorf("trace: empty spec")
	}
	if inner, ok := cutWrapper(spec, "mix(", ")"); ok {
		return p.parseMix(inner)
	}
	parts := strings.Split(spec, ":")
	switch parts[0] {
	case "loop":
		if len(parts) != 2 {
			return nil, fmt.Errorf("trace: loop spec %q wants loop:<size>", spec)
		}
		size, err := ParseSpecSize(parts[1])
		if err != nil {
			return nil, err
		}
		return NewLoop(p.base(), size)
	case "stream":
		if len(parts) != 1 {
			return nil, fmt.Errorf("trace: stream spec %q takes no arguments", spec)
		}
		return NewStream(p.base()), nil
	case "strided":
		if len(parts) != 3 {
			return nil, fmt.Errorf("trace: strided spec %q wants strided:<size>:<stride>", spec)
		}
		size, err := ParseSpecSize(parts[1])
		if err != nil {
			return nil, err
		}
		stride, err := ParseSpecSize(parts[2])
		if err != nil {
			return nil, err
		}
		return NewStrided(p.base(), size, stride)
	case "zipf":
		if len(parts) != 2 && len(parts) != 3 {
			return nil, fmt.Errorf("trace: zipf spec %q wants zipf:<size>[:<skew>]", spec)
		}
		size, err := ParseSpecSize(parts[1])
		if err != nil {
			return nil, err
		}
		skew := 1.0
		if len(parts) == 3 {
			skew, err = strconv.ParseFloat(parts[2], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: bad zipf skew %q", parts[2])
			}
		}
		p.seed++
		return NewZipf(p.base(), size, skew, p.seed)
	}
	return nil, fmt.Errorf("trace: unknown generator %q", parts[0])
}

func (p *specParser) parseMix(inner string) (Generator, error) {
	var comps []Component
	for _, field := range splitTop(inner) {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		at := strings.LastIndex(field, "@")
		if at < 0 {
			return nil, fmt.Errorf("trace: mix component %q missing @weight", field)
		}
		weight, err := strconv.ParseFloat(field[at+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: bad mix weight in %q", field)
		}
		gen, err := p.parse(field[:at])
		if err != nil {
			return nil, err
		}
		comps = append(comps, Component{Gen: gen, Weight: weight})
	}
	p.seed++
	return NewMix(p.seed, comps...)
}

// splitTop splits on commas not nested inside parentheses.
func splitTop(s string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range s {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// cutWrapper strips prefix/suffix if both are present at the outermost
// level.
func cutWrapper(s, prefix, suffix string) (string, bool) {
	if strings.HasPrefix(s, prefix) && strings.HasSuffix(s, suffix) {
		return s[len(prefix) : len(s)-len(suffix)], true
	}
	return "", false
}

// ParseSpecSize parses a size with k/m/g suffixes ("4096", "512k", "8m",
// "1g") into bytes, the syntax of the spec's sizes; the CLI tools accept
// it too.
func ParseSpecSize(s string) (uint64, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "" {
		return 0, fmt.Errorf("trace: empty size")
	}
	mult := uint64(1)
	switch s[len(s)-1] {
	case 'k':
		mult = 1 << 10
		s = s[:len(s)-1]
	case 'm':
		mult = 1 << 20
		s = s[:len(s)-1]
	case 'g':
		mult = 1 << 30
		s = s[:len(s)-1]
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad size %q", s)
	}
	return n * mult, nil
}
