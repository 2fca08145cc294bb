// Reachability guard: every exported declaration under internal/ is reached
// from a command (a main under cmd/ or bench/), every field of a reached
// struct under internal/ is read by code a binary reaches, or the allowlist
// below names it with the reason it stays. What only a walkthrough under
// examples/ reaches is listed as such, so that nobody mistakes an example's
// path for the simulator's. Every package is internal, so no importer outside
// this module can call an export a binary does not reach.
package repro_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// unreachedAllowed names the exported declarations that no command reaches
// and the fields that no reached code reads but that stay, as "pkg.Name",
// "pkg.Type.Method" or "pkg.Type.Field". An "example" entry's reason names
// an example that reaches it. An entry that a command reaches (or reads), or
// that no longer exists, fails the test, so the list only shrinks.
var unreachedAllowed = []struct{ name, kind, why string }{
	// Paper-number helpers that a root benchmark in bench_test.go calls;
	// ROADMAP item 1 turns each into a scorecard row.
	{"core.System.Figure3", "paper", "Figure 3: run-time linearity of one couple (§4.1)"},
	{"core.System.SimulatePhaseII", "paper", "§7: the phase II plan on the simulated grid"},
	{"costmodel.Measure", "paper", "Figure 3: measures the docking kernel's cost"},
	{"costmodel.Matrix.TopShare", "paper", "§4.2: share of the work in the heaviest couples"},
	{"project.Report.SpeedDownObserved", "paper", "Figure 8: the observed speed-down"},
	{"protein.TotalInstances", "paper", "§3: 49,481,544 MAXDo workunit instances"},
	{"protein.Dataset.MaxNsep", "paper", "Table 1: the largest separation count"},
	{"stats.Histogram.MaxBin", "paper", "Figure 2: the modal bin of the cost histogram"},
	{"stats.Series.YMax", "paper", "Figures 6-8: the peak of a weekly series"},
	{"validate.EstimateArchive", "paper", "§5.2: the result archive's size"},
	{"vftp.PaperSpeedDown", "paper", "§6: the measured net speed-down, 3.96"},
	{"vftp.PaperRedundancy", "paper", "§6: the measured redundancy, 1.37"},
	{"vftp.PaperTable2", "paper", "Table 2: VFTP equivalences"},
	{"wcg.DefaultServerCapacity", "paper", "§3.2: the task server's stated capacity"},
	{"wcg.ServerCapacity.LoadFor", "paper", "§3.2: the load a campaign puts on the server"},
	{"workunit.Plan.Count", "paper", "§4.2: the number of workunits a packaging makes"},

	// Figure 3's fitted lines, which only BenchmarkFigure3a/3b read; item
	// 1(a) of the ROADMAP turns them into scorecard rows.
	{"costmodel.LinearityReport.NrotFit", "paper", "Figure 3(a): time against the rotation count"},
	{"costmodel.LinearityReport.NsepFit", "paper", "Figure 3(b): time against the starting-position count"},
	{"costmodel.LinearityReport.NrotR", "paper", "Figure 3(a): the fit's correlation"},
	{"costmodel.LinearityReport.NsepR", "paper", "Figure 3(b): the fit's correlation"},
	{"stats.LinearFit.B", "paper", "Figure 3: a fitted line's slope"},
	{"stats.LinearFit.R2", "paper", "Figure 3: a fitted line's coefficient of determination"},

	// Names that only bench/ pins. Only a benchmark change may edit bench/;
	// ROADMAP item 11 removes them.
	{"experiment.Options.Shards", "bench", "bench/workloads.go assigns the ignored shard count"},
	{"workunit.Workunit.ID", "bench", "bench/layers.go writes it for AddWorkunit"},
	{"workunit.Workunit.Receptor", "bench", "AddWorkunit's record, which bench/layers.go builds"},
	{"workunit.Workunit.Ligand", "bench", "AddWorkunit's record, which bench/layers.go builds"},
	{"workunit.Workunit.ISepLo", "bench", "bench/layers.go sets it for AddWorkunit"},
	{"workunit.Workunit.ISepHi", "bench", "bench/layers.go sets it for AddWorkunit"},

	// Walkthroughs: what only an example under examples/ reaches.
	{"docking.DockRange", "example", "quickstart docks one couple"},
	{"docking.ParseResults", "example", "docking reads a result file back"},
	{"docking.DefaultValidRange", "example", "docking validates a result file"},
	{"docking.ValidRange.CheckLine", "example", "docking validates a result line"},
	{"docking.ValidRange.CheckResults", "example", "docking validates a result file"},
	{"docking.Task.Run", "example", "docking runs a checkpointed task"},
	{"docking.Task.RunN", "example", "docking runs a task in slices"},
	{"grid.ScheduleResult", "example", "pilotstudy list-schedules the pilot"},
	{"grid.Cluster.Schedule", "example", "pilotstudy list-schedules the pilot"},
	{"workunit.Plan.WithCouples", "example", "pilotstudy packages six proteins"},
	{"workunit.Plan.ForEach", "example", "pilotstudy lists the pilot's workunits"},

	// Test hooks: a test observes production state through them.
	{"costmodel.Matrix.Values", "hook", "tests compare whole matrices"},
	{"stats.Histogram.Total", "hook", "tests check a histogram's mass"},
	{"obs.Registry.Samples", "hook", "tests read recorded samples"},
	{"obs.Registry.NumSeries", "hook", "tests count registered series"},
	{"obs.Registry.Each", "hook", "tests walk every series"},
	{"obs.Sink.Lines", "hook", "tests read the lines a memory sink holds"},
	{"volunteer.NewShardKernel", "hook", "kernel tests build a bare kernel"},
	{"volunteer.Mux.Projects", "hook", "mux tests read the attachment table"},
	{"volunteer.Mux.Share", "hook", "mux tests read a tenant's share"},
	{"volunteer.Mux.Debts", "hook", "mux tests check that debts stay zero-sum"},
	{"wcg.Server.Deadline", "hook", "deadline tests read the policy's value"},

	// Test harness entry points: tests step the engine and the server
	// through them.
	{"sim.Engine.Run", "harness", "engine tests run to exhaustion"},
	{"sim.Engine.RunUntil", "harness", "engine tests run to a time"},
	{"sim.Engine.RunBefore", "harness", "engine tests run up to a time, exclusive"},
	{"sim.Engine.ScheduleAfter", "harness", "engine tests schedule relative to now"},
	{"wcg.Server.Complete", "harness", "server tests report a result without a host"},

	// Test oracle.
	{"stats.KolmogorovSmirnov", "oracle", "costmodel's Table 1 shape test"},

	// CI tooling: bench_test.go writes BENCH_campaign.json through them.
	{"experiment.AppendBenchRun", "ci", "records a bench row"},
	{"experiment.WriteBenchFile", "ci", "writes BENCH_campaign.json"},
}

// ifaceStd lists the methods that standard-library code calls through an
// interface or by reflection: fmt, errors, sort, container/heap,
// encoding/json and io.
var ifaceStd = []string{"String", "Error", "Len", "Less", "Swap", "Push", "Pop",
	"MarshalJSON", "UnmarshalJSON", "Read", "Write"}

// module holds every non-test package of the module and of bench/,
// type-checked with one shared Info.
type module struct {
	fset  *token.FileSet
	info  *types.Info
	dirs  map[string]*build.Package // by import path
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	std   types.Importer
}

func (m *module) Import(p string) (*types.Package, error) {
	bp, ok := m.dirs[p]
	if !ok {
		return m.std.Import(p)
	}
	if pkg, ok := m.pkgs[p]; ok {
		return pkg, nil
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(p, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[p], m.files[p] = pkg, files
	return pkg, nil
}

func loadModule(t *testing.T) *module {
	m := &module{
		fset: token.NewFileSet(),
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}},
		dirs:  map[string]*build.Package{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		std:   importer.Default(),
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(p, 0)
		var none *build.NoGoError
		if errors.As(err, &none) {
			return nil
		}
		m.dirs[path.Join("repro", filepath.ToSlash(p))] = bp
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := range m.dirs {
		if _, err := m.Import(p); err != nil {
			t.Fatalf("type-checking %s: %v", p, err)
		}
	}
	return m
}

// reacher walks declarations from roots, marking every module-level
// function, method, type, variable and constant that a walked declaration
// names, and every method whose name an interface declares on a type it
// reaches. Along the way it marks the struct fields the walked code reads.
type reacher struct {
	m       *module
	decl    map[types.Object]ast.Node // package-level object -> its declaration
	ifaces  map[string]bool           // method names callable through an interface
	reached map[types.Object]bool
	read    map[*types.Var]bool // struct fields that walked code reads
	queue   []types.Object
}

func newReacher(m *module) *reacher {
	r := &reacher{m: m, decl: map[types.Object]ast.Node{}, ifaces: map[string]bool{},
		reached: map[types.Object]bool{}, read: map[*types.Var]bool{}}
	for _, name := range ifaceStd {
		r.ifaces[name] = true
	}
	for _, files := range m.files {
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					r.decl[m.info.Defs[d.Name]] = d
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							r.decl[m.info.Defs[s.Name]] = s
						case *ast.ValueSpec:
							for _, n := range s.Names {
								r.decl[m.info.Defs[n]] = s
							}
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					iface := m.info.Types[it].Type.Underlying().(*types.Interface)
					for i := 0; i < iface.NumMethods(); i++ {
						r.ifaces[iface.Method(i).Name()] = true
					}
				}
				return true
			})
		}
	}
	return r
}

func (r *reacher) reach(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if _, ok := r.decl[obj]; !ok || r.reached[obj] {
		return
	}
	r.reached[obj] = true
	r.queue = append(r.queue, obj)
}

// reachType reaches the named types t is built from.
func (r *reacher) reachType(t types.Type) {
	switch u := t.(type) {
	case *types.Pointer:
		r.reachType(u.Elem())
	case *types.Slice:
		r.reachType(u.Elem())
	case *types.Array:
		r.reachType(u.Elem())
	case *types.Map:
		r.reachType(u.Key())
		r.reachType(u.Elem())
	case *types.Named:
		r.reach(u.Origin().Obj())
		for i := 0; i < u.TypeArgs().Len(); i++ {
			r.reachType(u.TypeArgs().At(i))
		}
	}
}

// readSelector marks the fields a selector reads: each embedded field on
// its path, and the selected field unless the selector is the whole left
// operand of a plain assignment (a write).
func (r *reacher) readSelector(sel *types.Selection, write bool) {
	t, path := sel.Recv(), sel.Index()
	if sel.Kind() != types.FieldVal {
		path = path[:len(path)-1] // the last step selects a method
	}
	for i, k := range path {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return // a field of a type parameter's core type
		}
		f := st.Field(k)
		if i < len(path)-1 || !write {
			r.read[f.Origin()] = true
		}
		t = f.Type()
	}
}

// readAll marks every field a value of type t holds, through pointers,
// slices, arrays, maps and fields, as encoding/json and fmt read them: a
// value passed to an interface-typed parameter. A json:"-" field is not
// reached this way.
func (r *reacher) readAll(t types.Type, seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		r.readAll(u.Elem(), seen)
	case *types.Slice:
		r.readAll(u.Elem(), seen)
	case *types.Array:
		r.readAll(u.Elem(), seen)
	case *types.Map:
		r.readAll(u.Key(), seen)
		r.readAll(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if reflect.StructTag(u.Tag(i)).Get("json") != "-" {
				r.read[u.Field(i).Origin()] = true
				r.readAll(u.Field(i).Type(), seen)
			}
		}
	}
}

// readArgs applies readAll to each argument of call that goes to an
// interface-typed parameter.
func (r *reacher) readArgs(call *ast.CallExpr) {
	sig, ok := r.m.info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, a := range call.Args {
		var p types.Type
		switch last := params.Len() - 1; {
		case sig.Variadic() && i >= last && !call.Ellipsis.IsValid():
			p = params.At(last).Type().(*types.Slice).Elem()
		case i <= last:
			p = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(p) {
			r.readAll(r.m.info.TypeOf(a), map[types.Type]bool{})
		}
	}
}

func (r *reacher) walk(n ast.Node) {
	written := map[ast.Expr]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := r.m.info.Uses[n]; obj != nil {
				r.reach(obj)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				for _, l := range n.Lhs {
					written[l] = true
				}
			}
		case *ast.SelectorExpr:
			if sel, ok := r.m.info.Selections[n]; ok {
				r.readSelector(sel, written[n])
			}
		case *ast.CallExpr:
			r.readArgs(n)
		}
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := r.m.info.Types[e]; ok {
				r.reachType(tv.Type)
			}
		}
		return true
	})
}

// run walks the declaration of every queued object until the queue is
// empty.
func (r *reacher) run() {
	for len(r.queue) > 0 {
		obj := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		r.walk(r.decl[obj])
		r.reachType(obj.Type())
		if tn, ok := obj.(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if meth := named.Method(i); r.ifaces[meth.Name()] {
						r.reach(meth)
					}
				}
			}
		}
	}
}

// lookup resolves an allowlist name in the module's internal packages.
func (m *module) lookup(name string) types.Object {
	parts := strings.Split(name, ".")
	for p, pkg := range m.pkgs {
		if !strings.HasPrefix(p, "repro/internal/") || pkg.Name() != parts[0] {
			continue
		}
		obj := pkg.Scope().Lookup(parts[1])
		if obj == nil || len(parts) == 2 {
			return obj
		}
		if _, ok := obj.(*types.TypeName); ok {
			sel, _, _ := types.LookupFieldOrMethod(obj.Type(), true, pkg, parts[2])
			return sel
		}
	}
	return nil
}

// declName names obj as the allowlist does: pkg.Name, pkg.Type.Method or
// pkg.Type.Field.
func declName(obj types.Object) string {
	name := obj.Pkg().Name() + "." + obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			name = obj.Pkg().Name() + "." + recvType(recv).Name() + "." + obj.Name()
		}
	}
	return name
}

// recvType is the named type of a method's receiver.
func recvType(recv *types.Var) *types.TypeName {
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj()
}

// internal reports whether obj is declared under internal/.
func (m *module) internal(obj types.Object) bool {
	return strings.HasPrefix(filepath.ToSlash(m.fset.Position(obj.Pos()).Filename), "internal/")
}

// TestEveryExportReachesABinary walks from every main under cmd/ and bench/,
// every init and every package-level variable initialiser, then from the
// allowlist, and then from each main under examples/. It fails on each
// exported declaration under internal/ that no walk reaches, on each that
// only an example reaches unless an "example" entry names that example, and
// on each field of a reached struct under internal/ that no walked code
// reads. Methods count as reached through an interface when their type is
// reached and an interface of the module or of ifaceStd declares their name.
func TestEveryExportReachesABinary(t *testing.T) {
	m := loadModule(t)
	r := newReacher(m)

	// Roots: every main and init, and every package-level variable
	// initialiser. The examples' mains wait for their own tier.
	examples := map[string]*ast.FuncDecl{}
	for p, files := range m.files {
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					root := d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && f.Name.Name == "main")
					switch {
					case !root:
					case d.Name.Name == "main" && strings.HasPrefix(p, "repro/examples/"):
						examples[path.Base(p)] = d
					default:
						r.walk(d)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						for _, s := range d.Specs {
							for _, v := range s.(*ast.ValueSpec).Values {
								r.walk(v)
							}
						}
					}
				}
			}
		}
	}
	r.run()

	seen := map[string]bool{}
	allowed := map[types.Object]bool{}
	var fieldEntries, exampleEntries []int
	for i, a := range unreachedAllowed {
		if seen[a.name] {
			t.Errorf("allowlist names %s twice", a.name)
		}
		seen[a.name] = true
		obj := m.lookup(a.name)
		switch v, _ := obj.(*types.Var); {
		case obj == nil:
			t.Errorf("stale allowlist entry %s (%s): it no longer exists", a.name, a.kind)
		case v != nil && v.IsField():
			fieldEntries = append(fieldEntries, i)
		case a.kind == "example":
			exampleEntries = append(exampleEntries, i)
		case r.reached[obj]:
			t.Errorf("stale allowlist entry %s (%s): a binary reaches it now", a.name, a.kind)
		default:
			allowed[obj] = true
			r.reach(obj)
		}
	}
	r.run()

	// The examples tier: what each example reaches beyond the first walk.
	base := r.reached
	only := map[types.Object][]string{}
	names := make([]string, 0, len(examples))
	for name := range examples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.reached = maps.Clone(base)
		r.walk(examples[name])
		r.run()
		for obj := range r.reached {
			if !base[obj] {
				only[obj] = append(only[obj], name)
			}
		}
	}
	r.reached = maps.Clone(base)
	for obj := range only {
		r.reached[obj] = true
	}
	for _, i := range exampleEntries {
		a := unreachedAllowed[i]
		obj := m.lookup(a.name)
		switch {
		case base[obj]:
			t.Errorf("stale allowlist entry %s (example): a binary reaches it now", a.name)
		case !slices.ContainsFunc(only[obj], func(e string) bool { return strings.Contains(a.why, e) }):
			t.Errorf("allowlist entry %s (example) names none of the examples that reach it: %v", a.name, only[obj])
		}
		allowed[obj] = true
	}
	for _, i := range fieldEntries {
		a := unreachedAllowed[i]
		obj := m.lookup(a.name).(*types.Var)
		if r.read[obj] {
			t.Errorf("stale allowlist entry %s (%s): reached code reads it now", a.name, a.kind)
		}
		allowed[obj] = true
	}

	type miss struct {
		pos  token.Position
		name string
		why  string
	}
	var misses []miss
	add := func(obj types.Object, name, why string) {
		misses = append(misses, miss{m.fset.Position(obj.Pos()), name, why})
	}
	for obj := range r.decl {
		if allowed[obj] || !obj.Exported() || !m.internal(obj) {
			continue
		}
		switch {
		case !r.reached[obj]:
			add(obj, declName(obj), "no binary reaches it")
		case only[obj] != nil && !followsType(obj, only):
			add(obj, declName(obj), "only examples reach it ("+strings.Join(only[obj], ", ")+")")
		}
	}
	for obj := range r.reached {
		tn, ok := obj.(*types.TypeName)
		if !ok || !m.internal(obj) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); !r.read[f] && !allowed[f] {
				add(f, declName(obj)+"."+f.Name(), "no reached code reads it")
			}
		}
	}
	sort.Slice(misses, func(i, j int) bool {
		a, b := misses[i].pos, misses[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
	})
	for _, u := range misses {
		t.Errorf("%s:%d %s: %s; delete it or add it to unreachedAllowed",
			filepath.ToSlash(u.pos.Filename), u.pos.Line, u.name, u.why)
	}
}

// followsType reports whether obj is a method that a standard-library
// interface reaches on a type only examples reach: it needs no entry of its
// own.
func followsType(obj types.Object, only map[types.Object][]string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || !slices.Contains(ifaceStd, fn.Name()) {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && only[recvType(recv)] != nil
}
