package resctrl

import (
	"fmt"
	"path"
	"strconv"
	"strings"
)

// FS presents a System through the file paths and text formats of the
// Linux resctrl filesystem, so tooling (and people) can drive the
// emulation the way they would drive /sys/fs/resctrl on real hardware:
//
//	fs := resctrl.NewFS(sys)
//	fs.Mkdir("/hp")                          // create a control group
//	fs.WriteFile("/hp/schemata", "L3:0=ffffe")
//	occ, _ := fs.ReadFile("/hp/mon_data/mon_L3_00/llc_occupancy")
//
// Supported tree (a faithful subset of the kernel's):
//
//	/info/L3/cbm_mask            full-platform CBM (hex)
//	/info/L3/min_cbm_bits        minimum mask width (always "1")
//	/info/L3/num_closids         number of CLOS
//	/schemata                    root group = CLOS 0
//	/cpus_list                   cores of CLOS 0 (read-only here)
//	/mon_data/mon_L3_00/llc_occupancy
//	/mon_data/mon_L3_00/mbm_total_bytes
//	/<group>/...                 same files for created groups
//
// Group directories map to CLOS ids in creation order: the root is CLOS 0,
// the first Mkdir gets CLOS 1, and so on.
type FS struct {
	sys    System
	groups map[string]int // group name -> clos ("" is the root)
}

// NewFS wraps sys in the filesystem facade.
func NewFS(sys System) *FS {
	return &FS{sys: sys, groups: map[string]int{"": 0}}
}

// fullMask returns the platform CBM.
func (f *FS) fullMask() uint64 {
	ways := f.sys.NumWays()
	if ways >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(ways)) - 1
}

// Mkdir creates a control group backed by the lowest free CLOS.
func (f *FS) Mkdir(p string) error {
	name, err := f.groupName(p)
	if err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("resctrl: cannot create root")
	}
	if _, ok := f.groups[name]; ok {
		return fmt.Errorf("resctrl: group %q exists", name)
	}
	used := make(map[int]bool, len(f.groups))
	for _, c := range f.groups {
		used[c] = true
	}
	for clos := 0; clos < f.sys.NumClos(); clos++ {
		if !used[clos] {
			f.groups[name] = clos
			return nil
		}
	}
	return fmt.Errorf("resctrl: out of CLOS ids (%d)", f.sys.NumClos())
}

// ReadFile returns the contents of the file at p, newline-terminated like
// the kernel's.
func (f *FS) ReadFile(p string) (string, error) {
	clean := path.Clean("/" + p)
	switch clean {
	case "/info/L3/cbm_mask":
		return fmt.Sprintf("%x\n", f.fullMask()), nil
	case "/info/L3/min_cbm_bits":
		return "1\n", nil
	case "/info/L3/num_closids":
		return fmt.Sprintf("%d\n", f.sys.NumClos()), nil
	}
	group, file, err := f.splitGroupFile(clean)
	if err != nil {
		return "", err
	}
	clos, ok := f.groups[group]
	if !ok {
		return "", fmt.Errorf("resctrl: no group %q", group)
	}
	switch file {
	case "schemata":
		s := Schemata{Resource: "L3", Masks: map[int]uint64{0: f.sys.CBM(clos)}}
		return FormatSchemata(s, f.sys.NumWays()) + "\n", nil
	case "cpus_list":
		var cores []string
		for _, c := range f.sys.Counters().Cores {
			if c.Clos == clos {
				cores = append(cores, strconv.Itoa(c.Core))
			}
		}
		return strings.Join(cores, ",") + "\n", nil
	case "mon_data/mon_L3_00/llc_occupancy":
		for _, g := range f.sys.Counters().Clos {
			if g.Clos == clos {
				return fmt.Sprintf("%d\n", int64(g.OccupancyBytes)), nil
			}
		}
		return "0\n", nil
	case "mon_data/mon_L3_00/mbm_total_bytes":
		for _, g := range f.sys.Counters().Clos {
			if g.Clos == clos {
				return fmt.Sprintf("%d\n", int64(g.MemBytes)), nil
			}
		}
		return "0\n", nil
	}
	return "", fmt.Errorf("resctrl: no file %q", p)
}

// WriteFile writes data to the file at p. Only schemata files are
// writable, as in the kernel (cpus assignment is fixed at Attach time in
// the simulator).
func (f *FS) WriteFile(p, data string) error {
	clean := path.Clean("/" + p)
	group, file, err := f.splitGroupFile(clean)
	if err != nil {
		return err
	}
	clos, ok := f.groups[group]
	if !ok {
		return fmt.Errorf("resctrl: no group %q", group)
	}
	if file != "schemata" {
		return fmt.Errorf("resctrl: %q is not writable", p)
	}
	for _, line := range strings.Split(strings.TrimSpace(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		s, err := ParseSchemata(line, f.sys.NumWays())
		if err != nil {
			return err
		}
		switch s.Resource {
		case "L3":
			mask, ok := s.Masks[0]
			if !ok {
				return fmt.Errorf("resctrl: schemata %q missing domain 0", line)
			}
			if err := f.sys.SetCBM(clos, mask); err != nil {
				return err
			}
		case "MB":
			pct, ok := s.Percent[0]
			if !ok {
				return fmt.Errorf("resctrl: schemata %q missing domain 0", line)
			}
			// MBA exposes percent-of-peak throttling; convert to Gbps.
			cap := f.sys.LinkCapacityGbps() * float64(pct) / 100
			if err := f.sys.SetMBACap(clos, cap); err != nil {
				return err
			}
		}
	}
	return nil
}

// groupName extracts the group name from a path like "/hp", or "" for
// "/".
func (f *FS) groupName(p string) (string, error) {
	clean := strings.Trim(path.Clean("/"+p), "/")
	if strings.Contains(clean, "/") {
		return "", fmt.Errorf("resctrl: nested groups are not supported (%q)", p)
	}
	return clean, nil
}

// splitGroupFile splits "/hp/schemata" into ("hp", "schemata") and
// "/schemata" into ("", "schemata"); mon_data subpaths stay in the file
// part.
func (f *FS) splitGroupFile(clean string) (group, file string, err error) {
	parts := strings.Split(strings.Trim(clean, "/"), "/")
	if len(parts) == 0 || parts[0] == "" {
		return "", "", fmt.Errorf("resctrl: %q is a directory", clean)
	}
	if _, ok := f.groups[parts[0]]; ok && len(parts) > 1 {
		return parts[0], strings.Join(parts[1:], "/"), nil
	}
	return "", strings.Join(parts, "/"), nil
}
