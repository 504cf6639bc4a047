package pedf

import (
	"fmt"

	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/obs"
	"dfdbg/internal/sim"
)

// Module is a sub-graph of filters plus a controller, with external
// ports; modules nest hierarchically (paper Section IV).
type Module struct {
	Name       string
	Parent     *Module
	Sub        []*Module
	Controller *Filter
	Filters    []*Filter

	rt        *Runtime
	portNames []string
	ports     map[string]*Port
	step      uint64
	done      bool
	// stateChange wakes controllers waiting on WAIT_FOR_ACTOR_INIT/SYNC.
	stateChange *sim.Event
}

// Step returns the module's current step index.
func (m *Module) Step() uint64 { return m.step }

// Done reports whether the module's controller has finished.
func (m *Module) Done() bool { return m.done }

// Port returns an external port by name.
func (m *Module) Port(name string) *Port { return m.ports[name] }

// Ports returns the external port names in declaration order.
func (m *Module) Ports() []string { return append([]string(nil), m.portNames...) }

// FilterByName finds a filter (not the controller) of this module.
func (m *Module) FilterByName(name string) *Filter {
	for _, f := range m.Filters {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// AddPort declares an external module port.
func (m *Module) AddPort(name string, dir Direction, typ *filterc.Type) (*Port, error) {
	if _, dup := m.ports[name]; dup {
		return nil, fmt.Errorf("pedf: module %s port %q redeclared", m.Name, name)
	}
	p := &Port{ActorName: m.Name, Name: name, Dir: dir, Type: typ}
	m.ports[name] = p
	m.portNames = append(m.portNames, name)
	return p, nil
}

// FilterSpec describes a filter to instantiate.
type FilterSpec struct {
	Name       string
	Source     string // filterc source; empty when Work is set
	SourceFile string // defaults to "<name>.c"
	Work       func(*WorkCtx) error
	Data       []VarSpec
	Attrs      []VarSpec
	Inputs     []PortSpec
	Outputs    []PortSpec
}

// ControllerSpec describes a module controller.
type ControllerSpec struct {
	Source     string // filterc source; the work() return value 0 ends the module
	SourceFile string // defaults to "<module>_ctrl.c"
	Ctl        func(*CtlCtx) (bool, error)
	Data       []VarSpec
	Attrs      []VarSpec
	Outputs    []PortSpec // control outputs (cmd links)
	Inputs     []PortSpec
}

// Collector accumulates tokens drained from a top-level module output.
type Collector struct {
	Port   *Port
	Values []filterc.Value
	link   *Link
}

// bindSpec is a recorded `binds A to B` awaiting elaboration.
type bindSpec struct {
	a, b *Port
}

// feederSpec is a recorded external input feed.
type feederSpec struct {
	src    *Port // environment-side output port
	values []filterc.Value
}

// Runtime hosts a PEDF application on a machine, under an optional
// low-level debugger.
type Runtime struct {
	K    *sim.Kernel
	M    *mach.Machine
	Dbg  *lowdbg.Debugger
	Syms *dbginfo.Table

	// LinkCap overrides the default FIFO capacity for new links.
	LinkCap int

	// FilterCEngine selects the filterc execution engine for every actor
	// interpreter this runtime creates (filterc.EngineDefault follows the
	// build tag / DFDBG_FILTERC_INTERP). The differential replay tests use
	// it to run the same application on the walker and on the VM.
	FilterCEngine filterc.Engine

	modules    map[string]*Module
	moduleList []*Module
	actors     map[string]*Filter // filters AND controllers by name
	actorList  []*Filter
	links      []*Link
	binds      []bindSpec
	feeders    []feederSpec
	collectors []*Collector
	coop       map[string]bool
	elaborated bool
	started    bool

	// fireHist is the firing-duration histogram, registered by Start when
	// the kernel has an observer installed (nil otherwise).
	fireHist *obs.Histogram

	// Batched execution engine state (batch.go / DESIGN §12).
	batchPlans []BatchPlan
	batchModes []RegionMode
	batchHold  string // non-empty demotes every region (e.g. debug client attached)
	batchWired bool   // arm/fault watchers installed
}

// NewRuntime creates a runtime. dbg may be nil (undebugged run).
func NewRuntime(k *sim.Kernel, m *mach.Machine, dbg *lowdbg.Debugger) *Runtime {
	rt := &Runtime{
		K: k, M: m, Dbg: dbg,
		LinkCap: DefaultLinkCap,
		modules: make(map[string]*Module),
		actors:  make(map[string]*Filter),
	}
	if dbg != nil {
		rt.Syms = dbg.Syms
	} else {
		rt.Syms = dbginfo.NewTable()
	}
	rt.defineRuntimeSymbols()
	return rt
}

func (rt *Runtime) defineRuntimeSymbols() {
	all := append(append(RegistrationSymbols(), SchedulingSymbols()...), DataSymbols()...)
	all = append(all, ControlSymbols()...)
	for _, s := range all {
		if rt.Syms.Lookup(s) == nil {
			rt.Syms.MustDefine(dbginfo.Symbol{
				Name: s, Kind: dbginfo.SymFunc, Entity: dbginfo.EntRuntime, File: "pedf_runtime.c",
			})
		}
	}
}

// SetCooperation enables the paper's mitigation "option 2" (framework
// cooperation): data-exchange hook calls are only issued for the listed
// actors. nil (default) reports every actor.
func (rt *Runtime) SetCooperation(actors []string) {
	if actors == nil {
		rt.coop = nil
		return
	}
	rt.coop = make(map[string]bool, len(actors))
	for _, a := range actors {
		rt.coop[a] = true
	}
}

// hook reports a framework API call to the attached debugger.
func (rt *Runtime) hook(p *sim.Proc, fn string, args []lowdbg.Arg) func(any) {
	if rt.Dbg == nil {
		return nil
	}
	return rt.Dbg.EnterFunc(p, fn, args)
}

// hookData reports a data-exchange call, honouring framework cooperation.
func (rt *Runtime) hookData(p *sim.Proc, actor, fn string, args []lowdbg.Arg) func(any) {
	if rt.Dbg == nil {
		return nil
	}
	if rt.coop != nil && !rt.coop[actor] {
		return nil
	}
	return rt.Dbg.EnterFunc(p, fn, args)
}

// registerObsMetrics publishes per-link and per-actor metrics into the
// kernel's observability registry. Everything is function-backed —
// values are read from state the runtime keeps anyway, so the hot path
// pays nothing — except the firing-duration histogram, which invokeWork
// feeds only while an observer is installed.
func (rt *Runtime) registerObsMetrics() {
	rec := rt.K.Observer()
	if rec == nil {
		return
	}
	m := rec.Metrics
	for _, l := range rt.links {
		l := l
		label := l.Src.Qualified() + "->" + l.Dst.Qualified()
		m.GaugeFunc("pedf_link_occupancy", "tokens currently queued on a link",
			func() float64 { return float64(l.n) }, "link", label)
		m.CounterFunc("pedf_link_pushes_total", "tokens ever pushed on a link",
			func() float64 { return float64(l.pushes) }, "link", label)
		m.CounterFunc("pedf_link_pops_total", "tokens ever popped from a link",
			func() float64 { return float64(l.pops) }, "link", label)
		m.CounterFunc("pedf_link_drops_total", "tokens removed without a pop (surgery or faults)",
			func() float64 { return float64(l.drops) }, "link", label)
	}
	for _, f := range rt.actorList {
		f := f
		m.CounterFunc("pedf_actor_firings_total", "completed WORK invocations",
			func() float64 { return float64(f.firings) }, "actor", f.Name)
		m.CounterFunc("pedf_actor_blocked_ns_total", "simulated ns spent blocked on links or sync",
			func() float64 { return float64(f.blockedNS) }, "actor", f.Name)
	}
	rt.fireHist = m.Histogram("pedf_firing_duration_ns",
		"simulated duration of one WORK firing",
		[]float64{100, 1000, 10_000, 100_000, 1_000_000})
	// Bytecode-compiler counters (process-wide: the compiled-code cache is
	// shared across runtimes).
	m.CounterFunc("filterc_compile_total", "filter programs compiled to bytecode",
		func() float64 { return float64(filterc.CompileTotal()) })
	m.CounterFunc("filterc_cache_hits_total", "compiled-code cache hits",
		func() float64 { return float64(filterc.CacheHits()) })
	m.CounterFunc("pedf_faults_injected_total", "injected faults that have fired",
		func() float64 {
			if fi := rt.K.Faults(); fi != nil {
				return float64(fi.InjectedTotal())
			}
			return 0
		})
}

// portPE returns the PE an endpoint lives on (environment ports live on
// the host).
func (rt *Runtime) portPE(p *Port) *mach.PE {
	if p.owner != nil {
		return p.owner.PE
	}
	return rt.M.Host
}

// Modules returns all modules in creation order.
func (rt *Runtime) Modules() []*Module { return append([]*Module(nil), rt.moduleList...) }

// ModuleByName finds a module.
func (rt *Runtime) ModuleByName(name string) *Module { return rt.modules[name] }

// Actors returns all filters and controllers in creation order.
func (rt *Runtime) Actors() []*Filter { return append([]*Filter(nil), rt.actorList...) }

// ActorByName finds a filter or controller by its global name.
func (rt *Runtime) ActorByName(name string) *Filter { return rt.actors[name] }

// Links returns all elaborated links.
func (rt *Runtime) Links() []*Link { return append([]*Link(nil), rt.links...) }

// Collectors returns the registered output collectors.
func (rt *Runtime) Collectors() []*Collector { return append([]*Collector(nil), rt.collectors...) }

// NewModule creates a module (parent nil for top level). Module names
// are globally unique.
func (rt *Runtime) NewModule(name string, parent *Module) (*Module, error) {
	if rt.started {
		return nil, fmt.Errorf("pedf: cannot add modules after Start")
	}
	if _, dup := rt.modules[name]; dup {
		return nil, fmt.Errorf("pedf: module %q redefined", name)
	}
	m := &Module{
		Name: name, Parent: parent, rt: rt,
		ports:       make(map[string]*Port),
		stateChange: rt.K.NewEvent("module." + name + ".state"),
	}
	rt.modules[name] = m
	rt.moduleList = append(rt.moduleList, m)
	if parent != nil {
		parent.Sub = append(parent.Sub, m)
	}
	return m, nil
}

// NewFilter instantiates a filter inside a module. Filter names are
// globally unique (as in the paper's case study: pipe, ipf, ipred, ...).
func (rt *Runtime) NewFilter(m *Module, spec FilterSpec) (*Filter, error) {
	if rt.started {
		return nil, fmt.Errorf("pedf: cannot add filters after Start")
	}
	if spec.Work == nil && spec.Source == "" {
		return nil, fmt.Errorf("pedf: filter %q has neither source nor native work", spec.Name)
	}
	f, err := rt.newActor(m, spec.Name, RoleFilter, spec.Source, spec.SourceFile,
		spec.Data, spec.Attrs, spec.Inputs, spec.Outputs)
	if err != nil {
		return nil, err
	}
	f.NativeWork = spec.Work
	m.Filters = append(m.Filters, f)
	return f, nil
}

// SetController installs a module's controller (exactly one per module).
func (rt *Runtime) SetController(m *Module, spec ControllerSpec) (*Filter, error) {
	if rt.started {
		return nil, fmt.Errorf("pedf: cannot add controllers after Start")
	}
	if m.Controller != nil {
		return nil, fmt.Errorf("pedf: module %q already has a controller", m.Name)
	}
	if spec.Ctl == nil && spec.Source == "" {
		return nil, fmt.Errorf("pedf: controller of %q has neither source nor native ctl", m.Name)
	}
	name := m.Name + "_controller"
	srcFile := spec.SourceFile
	if srcFile == "" && spec.Source != "" {
		srcFile = m.Name + "_ctrl.c"
	}
	c, err := rt.newActor(m, name, RoleController, spec.Source, srcFile,
		spec.Data, spec.Attrs, spec.Inputs, spec.Outputs)
	if err != nil {
		return nil, err
	}
	c.NativeCtl = spec.Ctl
	m.Controller = c
	return c, nil
}

func (rt *Runtime) newActor(m *Module, name string, role Role, source, sourceFile string,
	data, attrs []VarSpec, inputs, outputs []PortSpec) (*Filter, error) {
	if _, dup := rt.actors[name]; dup {
		return nil, fmt.Errorf("pedf: actor %q redefined", name)
	}
	f := &Filter{
		Name: name, Role: role, Module: m, rt: rt,
		PE:      rt.M.MapNext(),
		data:    make(map[string]*filterc.Value),
		attrs:   make(map[string]*filterc.Value),
		ins:     make(map[string]*Port),
		outs:    make(map[string]*Port),
		startEv: rt.K.NewEvent("filter." + name + ".start"),
	}
	if source != "" {
		if sourceFile == "" {
			sourceFile = name + ".c"
		}
		prog, err := filterc.Intern(sourceFile, source)
		if err != nil {
			return nil, fmt.Errorf("pedf: filter %s: %w", name, err)
		}
		if prog.Func("work") == nil {
			return nil, fmt.Errorf("pedf: filter %s source defines no work()", name)
		}
		f.Prog = prog
		f.SourceFile = sourceFile
		if rt.Dbg != nil {
			rt.Dbg.AddSource(sourceFile, source)
		}
		lt := rt.Syms.LineTableFor(sourceFile)
		for _, sl := range prog.StmtLines() {
			lt.AddStmt(sl.Line, sl.Func)
		}
	}
	for _, v := range data {
		val := initValue(v)
		f.data[v.Name] = &val
		f.dataNames = append(f.dataNames, v.Name)
	}
	for _, v := range attrs {
		val := initValue(v)
		f.attrs[v.Name] = &val
		f.attrNames = append(f.attrNames, v.Name)
	}
	for _, ps := range inputs {
		if err := addPort(f, ps, In); err != nil {
			return nil, err
		}
	}
	for _, ps := range outputs {
		if err := addPort(f, ps, Out); err != nil {
			return nil, err
		}
	}
	rt.registerActorSymbols(f)
	rt.actors[name] = f
	rt.actorList = append(rt.actorList, f)
	return f, nil
}

func initValue(v VarSpec) filterc.Value {
	val := filterc.Zero(v.Type)
	if v.Type.Kind == filterc.KScalar && v.Init != 0 {
		val = filterc.Int(v.Type.Base, v.Init)
	}
	return val
}

func addPort(f *Filter, ps PortSpec, dir Direction) error {
	p := &Port{ActorName: f.Name, Name: ps.Name, Dir: dir, Type: ps.Type, owner: f}
	if dir == In {
		if _, dup := f.ins[ps.Name]; dup {
			return fmt.Errorf("pedf: %s input %q redeclared", f.Name, ps.Name)
		}
		f.ins[ps.Name] = p
		f.inNames = append(f.inNames, ps.Name)
	} else {
		if _, dup := f.outs[ps.Name]; dup {
			return fmt.Errorf("pedf: %s output %q redeclared", f.Name, ps.Name)
		}
		f.outs[ps.Name] = p
		f.outNames = append(f.outNames, ps.Name)
	}
	return nil
}

// registerActorSymbols defines the actor's mangled debug symbols and
// exposes its data objects to the debugger.
func (rt *Runtime) registerActorSymbols(f *Filter) {
	var workSym string
	var ent dbginfo.EntityKind
	owner := f.Name
	if f.Role == RoleController {
		workSym = dbginfo.MangleControllerWork(f.Module.Name)
		ent = dbginfo.EntController
		owner = f.Module.Name
	} else {
		workSym = dbginfo.MangleFilterWork(f.Name)
		ent = dbginfo.EntFilter
	}
	line := 0
	file := f.SourceFile
	if f.Prog != nil {
		if wf := f.Prog.Func("work"); wf != nil {
			line = wf.Pos.Line
		}
	}
	rt.Syms.MustDefine(dbginfo.Symbol{
		Name: workSym, Pretty: dbginfo.PrettyWork(owner), Kind: dbginfo.SymFunc,
		Entity: ent, Owner: owner, File: file, Line: line,
	})
	for _, dn := range f.dataNames {
		sym := dbginfo.MangleFilterData(f.Name, dn)
		rt.Syms.MustDefine(dbginfo.Symbol{
			Name: sym, Pretty: f.Name + "." + dn, Kind: dbginfo.SymData,
			Entity: ent, Owner: owner, File: file,
		})
		if rt.Dbg != nil {
			rt.Dbg.RegisterObject(sym, f.data[dn])
		}
	}
	for _, an := range f.attrNames {
		sym := dbginfo.MangleFilterData(f.Name, "attr_"+an)
		rt.Syms.MustDefine(dbginfo.Symbol{
			Name: sym, Pretty: f.Name + ".attribute." + an, Kind: dbginfo.SymData,
			Entity: ent, Owner: owner, File: file,
		})
		if rt.Dbg != nil {
			rt.Dbg.RegisterObject(sym, f.attrs[an])
		}
	}
}

// WorkSymbol returns the mangled WORK symbol of an actor (what `filter X
// catch work` plants a breakpoint on).
func WorkSymbol(f *Filter) string {
	if f.Role == RoleController {
		return dbginfo.MangleControllerWork(f.Module.Name)
	}
	return dbginfo.MangleFilterWork(f.Name)
}

// PlaceActor overrides the automatic round-robin mapping, pinning an
// actor to a specific processing element (by global PE id, or -1 for the
// host). Must be called before Start; link transfer costs follow the
// placement (intra-cluster L1, inter-cluster L2, host DMA).
func (rt *Runtime) PlaceActor(name string, peID int) error {
	if rt.started {
		return fmt.Errorf("pedf: cannot re-place actors after Start")
	}
	f := rt.ActorByName(name)
	if f == nil {
		return fmt.Errorf("pedf: no actor %q", name)
	}
	pe := rt.M.PEByID(peID)
	if pe == nil {
		return fmt.Errorf("pedf: no processing element %d", peID)
	}
	f.PE.Assigned--
	f.PE = pe
	pe.Assigned++
	return nil
}

// Bind records `binds a to b` (ADL semantics): actor-to-actor bindings
// become links at elaboration; bindings that cross a module boundary
// record port aliases.
func (rt *Runtime) Bind(a, b *Port) error {
	if rt.started {
		return fmt.Errorf("pedf: cannot bind after Start")
	}
	if a == nil || b == nil {
		return fmt.Errorf("pedf: bind with nil port")
	}
	if !typesMatch(a.Type, b.Type) {
		return fmt.Errorf("pedf: type mismatch binding %s (%s) to %s (%s)",
			a.Qualified(), a.Type, b.Qualified(), b.Type)
	}
	switch {
	case a.Dir == In && b.Dir == In:
		// Outer module input forwards to inner input.
		if a.alias != nil {
			return fmt.Errorf("pedf: %s already bound", a.Qualified())
		}
		a.alias = b
	case a.Dir == Out && b.Dir == Out:
		// Inner output forwards to outer module output.
		if b.alias != nil {
			return fmt.Errorf("pedf: %s already bound", b.Qualified())
		}
		b.alias = a
	case a.Dir == Out && b.Dir == In:
		rt.binds = append(rt.binds, bindSpec{a: a, b: b})
	default: // a In, b Out — accept the reversed spelling
		rt.binds = append(rt.binds, bindSpec{a: b, b: a})
	}
	return nil
}

func typesMatch(a, b *filterc.Type) bool {
	if a == nil || b == nil {
		return false
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case filterc.KScalar:
		return a.Base == b.Base
	case filterc.KStruct:
		return a.Name == b.Name
	default:
		return a.Len == b.Len && typesMatch(a.Elem, b.Elem)
	}
}

// resolve follows module-port aliases to the actor/environment endpoint.
func resolve(p *Port) (*Port, error) {
	seen := 0
	for p.alias != nil {
		p = p.alias
		if seen++; seen > 64 {
			return nil, fmt.Errorf("pedf: alias cycle at %s", p.Qualified())
		}
	}
	return p, nil
}

// FeedInput connects a top-level module input port to the environment
// and schedules the given token sequence to be pushed from the host.
func (rt *Runtime) FeedInput(port *Port, values []filterc.Value) error {
	if rt.started {
		return fmt.Errorf("pedf: cannot feed after Start")
	}
	if port.Dir != In {
		return fmt.Errorf("pedf: FeedInput on non-input %s", port.Qualified())
	}
	src := &Port{ActorName: EnvActor, Name: "feed_" + port.Name, Dir: Out, Type: port.Type}
	rt.binds = append(rt.binds, bindSpec{a: src, b: port})
	rt.feeders = append(rt.feeders, feederSpec{src: src, values: values})
	return nil
}

// CollectOutput connects a top-level module output port to the
// environment; drained tokens accumulate in the returned Collector.
func (rt *Runtime) CollectOutput(port *Port) (*Collector, error) {
	if rt.started {
		return nil, fmt.Errorf("pedf: cannot collect after Start")
	}
	if port.Dir != Out {
		return nil, fmt.Errorf("pedf: CollectOutput on non-output %s", port.Qualified())
	}
	dst := &Port{ActorName: EnvActor, Name: "drain_" + port.Name, Dir: In, Type: port.Type}
	rt.binds = append(rt.binds, bindSpec{a: port, b: dst})
	col := &Collector{Port: dst}
	rt.collectors = append(rt.collectors, col)
	return col, nil
}
