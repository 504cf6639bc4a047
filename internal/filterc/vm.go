package filterc

import "fmt"

// The bytecode VM. One dispatch loop, (*Interp).run, inlines the handful
// of hot opcodes; every other opcode is implemented in (*vm).step and its
// helpers.

// vm is the per-activation execution state of the bytecode engine. An
// Interp keeps one vm per call depth and reuses it for every later call
// at that depth, frame slot storage included: calls nest, so
// activations are last-in-first-out, and a frame is only reused after
// it has been popped. A steady-state call therefore allocates nothing.
//
// Aggregate values follow one ownership rule. Every storage location (a
// frame slot, pedf data and attributes, a constant or zero template, the
// environment's read window) owns its element storage exclusively.
// Operand-stack values may share storage with their source; every
// instruction that retains a value (declare, store, argument passing,
// io write) copies it into the destination's existing storage with
// Value.CloneInto, except an assignment whose value is used (see
// assignInto), and aggregate return values leave the callee as fresh
// clones, since the callee's slots are reused.
type vm struct {
	in    *Interp
	code  *Code
	fc    *funcCode
	fr    Frame
	stack []Value  // operand stack
	refs  []*Value // lvalue reference stack
}

func (m *vm) push(v Value) { m.stack = append(m.stack, v) }

func (m *vm) pop() Value {
	v := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	return v
}

func (m *vm) pushRef(r *Value) { m.refs = append(m.refs, r) }

func (m *vm) popRef() *Value {
	r := m.refs[len(m.refs)-1]
	m.refs = m.refs[:len(m.refs)-1]
	return r
}

func (m *vm) undefErr(pc int, slot int32) error {
	return &RuntimeError{Pos: m.fc.pos[pc],
		Msg: fmt.Sprintf("undefined variable %q", m.fc.slotNames[slot])}
}

// load pushes the value of a storage location. The walker clones every
// load so later side effects in the same expression cannot reach the
// loaded value. When the compiler marked the load shared (i.c == 1; see
// markShared), the next instruction takes the value off the stack at
// once and copies it, so the source itself is pushed.
func (m *vm) load(v *Value, i ins) {
	if v.Elems != nil && i.c == 0 {
		m.push(v.Clone())
		return
	}
	m.push(*v)
}

// assignInto writes an assigned value into dst. A discarded
// assignment copies into dst's existing storage. An assignment whose
// value the expression goes on to use gives dst a fresh copy that the
// pushed value shares, as the walker does: a later store to one of dst's
// elements in the same expression shows through the pending value, a
// later whole store does not.
func assignInto(dst *Value, nv Value, used bool) {
	if used && nv.Elems != nil {
		*dst = nv.Clone()
		return
	}
	nv.CloneInto(dst)
}

// activation returns the reusable activation record for a call at the
// given depth, reset to run fc.
func (in *Interp) activation(depth int, code *Code, fc *funcCode) *vm {
	for len(in.acts) <= depth {
		in.acts = append(in.acts, &vm{in: in, stack: make([]Value, 0, 8)})
	}
	m := in.acts[depth]
	m.code, m.fc = code, fc
	m.stack, m.refs = m.stack[:0], m.refs[:0]
	fr := &m.fr
	n := fc.nslots
	if cap(fr.slots) < n {
		// Keep the old element storage: CloneInto reuses it per slot.
		slots := make([]Value, n, n+n/2)
		copy(slots, fr.slots[:cap(fr.slots)])
		fr.slots = slots
		fr.live = make([]bool, n, cap(slots))
	}
	fr.slots, fr.live = fr.slots[:n], fr.live[:n]
	clear(fr.live)
	return m
}

// vmCall pushes a frame and runs a compiled function, mirroring the
// walker's call(): same argument conversion, same error positions, same
// OnEnter/OnExit placement, no OnExit on error.
func (in *Interp) vmCall(code *Code, fc *funcCode, args []Value, at Pos) (Value, error) {
	fn := fc.fn
	if len(args) != len(fn.Params) {
		return Value{}, &RuntimeError{Pos: at,
			Msg: fmt.Sprintf("%s expects %d argument(s), got %d", fn.Name, len(fn.Params), len(args))}
	}
	depth := 0
	if in.top != nil {
		depth = in.top.depth + 1
	}
	m := in.activation(depth, code, fc)
	fr := &m.fr
	fr.Fn, fr.Line, fr.parent, fr.fc, fr.depth = fn, fn.Pos.Line, in.top, fc, depth
	for i, p := range fn.Params {
		a := args[i]
		if p.Type.Kind == KScalar && a.IsScalar() {
			a = Int(p.Type.Base, a.I)
		} else if !typeCompatible(p.Type, a.Type) {
			return Value{}, &RuntimeError{Pos: at,
				Msg: fmt.Sprintf("argument %d of %s: cannot pass %s as %s", i+1, fn.Name, a.Type, p.Type)}
		}
		for j := 0; j < i; j++ {
			if fn.Params[j].Name == p.Name {
				return Value{}, &RuntimeError{Pos: at,
					Msg: fmt.Sprintf("variable %q redeclared in the same scope", p.Name)}
			}
		}
		a.CloneInto(&fr.slots[i])
		fr.live[i] = true
	}
	in.top = fr
	if in.Hooks != nil {
		in.Hooks.OnEnter(fr)
	}
	ret, err := in.run(m)
	if err != nil {
		in.top = fr.parent
		return Value{}, err
	}
	if fn.Ret.Kind == KScalar && fn.Ret.Base != Void && ret.IsScalar() {
		ret = Int(fn.Ret.Base, ret.I)
	}
	if ret.Elems != nil {
		ret = ret.Clone()
	}
	if in.Hooks != nil {
		// The walker pops every block scope before OnExit fires; only
		// the parameters remain visible to frame inspection.
		for i := len(fn.Params); i < len(fr.live); i++ {
			fr.live[i] = false
		}
		in.Hooks.OnExit(fr, ret)
	}
	in.top = fr.parent
	return ret, nil
}

// run is the dispatch loop. opStmt stores the line, charges the MaxSteps
// budget and delivers Hooks.OnStmt; the hook is checked per statement,
// like the walker's hookStmt, so a hook may detach itself mid-run.
func (in *Interp) run(m *vm) (Value, error) {
	fc, fr := m.fc, &m.fr
	cs := fc.code
	pc := 0
	for {
		i := cs[pc]
		switch i.op {
		case opStmt:
			fr.Line = int(i.a)
			in.steps++
			if in.MaxSteps > 0 && in.steps > in.MaxSteps {
				return Value{}, &RuntimeError{Pos: fc.pos[pc],
					Msg: "statement budget exceeded (runaway loop?)"}
			}
			if h := in.Hooks; h != nil {
				h.OnStmt(fr, fc.pos[pc])
			}
		case opConst:
			m.push(fc.consts[i.a])
		case opLoadSlot:
			if !fr.live[i.a] {
				return Value{}, m.undefErr(pc, i.a)
			}
			m.load(&fr.slots[i.a], i)
		case opCheckSlot:
			if !fr.live[i.a] {
				return Value{}, m.undefErr(pc, i.a)
			}
		case opDeclSlot:
			m.pop().CloneInto(&fr.slots[i.a])
			fr.live[i.a] = true
		case opStoreSlot:
			rv := m.pop()
			dst := &fr.slots[i.a]
			t := dst.Type
			if t.Kind == KScalar && t.Base != Str && rv.IsScalar() {
				// Inlined convertForAssign fast path: Int(t.Base, rv.I).
				*dst = Value{Type: &scalarTypes[t.Base], I: truncate(t.Base, rv.I)}
			} else {
				nv, err := convertForAssign(t, rv, fc.pos[pc])
				if err != nil {
					return Value{}, err
				}
				assignInto(dst, nv, i.c == 0)
			}
			if i.c == 0 {
				m.push(*dst)
			}
		case opCompSlot:
			if err := m.compSlot(pc, i); err != nil {
				return Value{}, err
			}
		case opIncSlot:
			// Inline the dominant statement form `x++;` (checked + value
			// discarded); everything else goes through incSlot.
			if i.c == 3 && fr.live[i.a] && fr.slots[i.a].IsScalar() {
				lv := &fr.slots[i.a]
				if i.b == incPre || i.b == incPost {
					*lv = Int(lv.Type.Base, lv.I+1)
				} else {
					*lv = Int(lv.Type.Base, lv.I-1)
				}
				break
			}
			if err := m.incSlot(pc, i); err != nil {
				return Value{}, err
			}
		case opBinary:
			r := m.pop()
			l := m.pop()
			// Same-singleton-type 32-bit operands keep their base under
			// promotion; the wrap-around ops inline without the kernel call.
			if l.Type == r.Type && l.Type.Kind == KScalar && (l.Type.Base == U32 || l.Type.Base == I32) {
				var x int64
				ok := true
				switch i.a {
				case bAdd:
					x = l.I + r.I
				case bSub:
					x = l.I - r.I
				case bMul:
					x = l.I * r.I
				case bAnd:
					x = l.I & r.I
				case bOr:
					x = l.I | r.I
				case bXor:
					x = l.I ^ r.I
				default:
					ok = false
				}
				if ok {
					if l.Type.Base == U32 {
						x = int64(uint32(x))
					} else {
						x = int64(int32(x))
					}
					m.push(Value{Type: l.Type, I: x})
					break
				}
			}
			if l.IsScalar() && r.IsScalar() {
				if v, ok := applyBinaryFast(int(i.a), l.Type.Base, r.Type.Base, l.I, r.I); ok {
					m.push(v)
					break
				}
				return Value{}, applyBinaryErr(int(i.a), fc.names[i.b], r.I, fc.pos[pc])
			}
			v, err := m.binarySlow(int(i.a), fc.names[i.b], l, r, pc)
			if err != nil {
				return Value{}, err
			}
			m.push(v)
		case opBinSS:
			if !fr.live[i.a] {
				return Value{}, m.undefErr(pc, i.a)
			}
			if !fr.live[i.b] {
				return Value{}, m.undefErr(pc, i.b)
			}
			l, r := &fr.slots[i.a], &fr.slots[i.b]
			if l.IsScalar() && r.IsScalar() {
				if v, ok := applyBinaryFast(int(i.c), l.Type.Base, r.Type.Base, l.I, r.I); ok {
					m.push(v)
					break
				}
			}
			v, err := m.binFused(i.c, *l, *r, pc)
			if err != nil {
				return Value{}, err
			}
			m.push(v)
		case opBinSC:
			if !fr.live[i.a] {
				return Value{}, m.undefErr(pc, i.a)
			}
			l, r := &fr.slots[i.a], &fc.consts[i.b]
			if l.IsScalar() && r.IsScalar() {
				if v, ok := applyBinaryFast(int(i.c), l.Type.Base, r.Type.Base, l.I, r.I); ok {
					m.push(v)
					break
				}
			}
			v, err := m.binFused(i.c, *l, *r, pc)
			if err != nil {
				return Value{}, err
			}
			m.push(v)
		case opBinTS:
			if !fr.live[i.a] {
				return Value{}, m.undefErr(pc, i.a)
			}
			l := m.pop()
			r := &fr.slots[i.a]
			if l.IsScalar() && r.IsScalar() {
				if v, ok := applyBinaryFast(int(i.c), l.Type.Base, r.Type.Base, l.I, r.I); ok {
					m.push(v)
					break
				}
			}
			v, err := m.binFused(i.c, l, *r, pc)
			if err != nil {
				return Value{}, err
			}
			m.push(v)
		case opBinTC:
			l := m.pop()
			r := &fc.consts[i.a]
			if l.IsScalar() && r.IsScalar() {
				if v, ok := applyBinaryFast(int(i.c), l.Type.Base, r.Type.Base, l.I, r.I); ok {
					m.push(v)
					break
				}
			}
			v, err := m.binFused(i.c, l, *r, pc)
			if err != nil {
				return Value{}, err
			}
			m.push(v)
		case opJFCmpSS, opJFCmpSC:
			if !fr.live[i.a] {
				return Value{}, m.undefErr(pc, i.a)
			}
			l := &fr.slots[i.a]
			var r *Value
			if i.op == opJFCmpSS {
				if !fr.live[i.b] {
					return Value{}, m.undefErr(pc, i.b)
				}
				r = &fr.slots[i.b]
			} else {
				r = &fc.consts[i.b]
			}
			id := i.c & 31
			if l.IsScalar() && r.IsScalar() {
				a, b := l.I, r.I
				if promoteBase(l.Type.Base, r.Type.Base) == U32 {
					a, b = int64(uint32(a)), int64(uint32(b))
				}
				var tr bool
				switch id {
				case bEq:
					tr = l.I == r.I
				case bNe:
					tr = l.I != r.I
				case bLt:
					tr = a < b
				case bLe:
					tr = a <= b
				case bGt:
					tr = a > b
				default: // bGe
					tr = a >= b
				}
				if !tr {
					pc = int(i.c >> 5)
					continue
				}
				break
			}
			v, err := m.binFused(id, *l, *r, pc)
			if err != nil {
				return Value{}, err
			}
			if v.I == 0 {
				pc = int(i.c >> 5)
				continue
			}
		case opJump:
			pc = int(i.a)
			continue
		case opJumpFalse:
			if m.pop().I == 0 {
				pc = int(i.a)
				continue
			}
		case opAndSC:
			if m.pop().I == 0 {
				m.push(Int(Bool, 0))
				pc = int(i.a)
				continue
			}
		case opOrSC:
			if m.pop().I != 0 {
				m.push(Int(Bool, 1))
				pc = int(i.a)
				continue
			}
		case opTruthBool:
			v := m.pop()
			m.push(Int(Bool, b2i(v.I != 0)))
		case opPop:
			m.stack = m.stack[:len(m.stack)-1]
		case opKill:
			for _, s := range fc.scopeSlots[i.a] {
				fr.live[s] = false
			}
		case opCaseEq:
			v := m.pop()
			if v.IsScalar() && v.I == fr.slots[i.a].I {
				pc = int(i.b)
				continue
			}
		case opRet:
			return m.pop(), nil
		case opRetVoid:
			return VoidVal(), nil
		default:
			if err := m.step(pc, i); err != nil {
				return Value{}, err
			}
		}
		pc++
	}
}

// compSlot implements compound assignment into a resolved slot.
func (m *vm) compSlot(pc int, i ins) error {
	rv := m.pop()
	lv := &m.fr.slots[i.a]
	if !lv.IsScalar() || !rv.IsScalar() {
		return &RuntimeError{Pos: m.fc.pos[pc], Msg: "compound assignment needs scalar operands"}
	}
	res, err := applyBinaryID(int(i.b), binOpNames[i.b], *lv, rv, m.fc.pos[pc])
	if err != nil {
		return err
	}
	*lv = Int(lv.Type.Base, res.I)
	if i.c == 0 {
		m.push(*lv)
	}
	return nil
}

// incSlot implements ++/-- on a resolved slot. Liveness is verified by
// the preceding opCheckSlot, or here when the peephole pass fused the two
// (c bit 2). c bit 1 means the result is discarded (fused opPop).
func (m *vm) incSlot(pc int, i ins) error {
	if i.c&2 != 0 && !m.fr.live[i.a] {
		return m.undefErr(pc, i.a)
	}
	lv := &m.fr.slots[i.a]
	if !lv.IsScalar() {
		return &RuntimeError{Pos: m.fc.pos[pc], Msg: "operand of ++/-- must be scalar"}
	}
	if i.c&1 != 0 {
		// Result discarded: update in place only.
		if i.b == incPre || i.b == incPost {
			*lv = Int(lv.Type.Base, lv.I+1)
		} else {
			*lv = Int(lv.Type.Base, lv.I-1)
		}
		return nil
	}
	return m.incCommon(lv, i.b)
}

func (m *vm) incCommon(lv *Value, mode int32) error {
	switch mode {
	case incPre:
		*lv = Int(lv.Type.Base, lv.I+1)
		m.push(*lv)
	case decPre:
		*lv = Int(lv.Type.Base, lv.I-1)
		m.push(*lv)
	case incPost:
		old := *lv
		*lv = Int(lv.Type.Base, lv.I+1)
		m.push(old)
	default: // decPost
		old := *lv
		*lv = Int(lv.Type.Base, lv.I-1)
		m.push(old)
	}
	return nil
}

// binarySlow handles binary ops when either operand is non-scalar: deep
// equality for ==/!=, the walker's needs-scalar error otherwise.
func (m *vm) binarySlow(id int, opstr string, l, r Value, pc int) (Value, error) {
	if id == bEq || id == bNe {
		eq := l.Equal(r)
		if id == bNe {
			eq = !eq
		}
		return Int(Bool, b2i(eq)), nil
	}
	return Value{}, &RuntimeError{Pos: m.fc.pos[pc],
		Msg: fmt.Sprintf("operator %s needs scalar operands, got %s and %s", opstr, l.Type, r.Type)}
}

// binFused applies a fused binary op (opBinSS/SC/TS/TC). Fused slot and
// constant operands skip the walker's per-load defensive clone: binary
// operators never retain or mutate their operands, so the omission is
// unobservable. The fused op's single position equals every constituent
// position (the peephole pass guarantees it), so errors match exactly.
func (m *vm) binFused(id int32, l, r Value, pc int) (Value, error) {
	if !l.IsScalar() || !r.IsScalar() {
		return m.binarySlow(int(id), binOpNames[id], l, r, pc)
	}
	return applyBinaryID(int(id), binOpNames[id], l, r, m.fc.pos[pc])
}

// step executes the cold opcodes shared by both dispatch loops. None of
// them changes the program counter.
func (m *vm) step(pc int, i ins) error {
	in, fc, fr := m.in, m.fc, &m.fr
	switch i.op {
	case opZero:
		// The shared zero template is never written: the opDeclSlot
		// that always follows copies it into the slot.
		m.push(fc.zeros[i.a])

	case opConv:
		v, err := convertForAssign(fc.types[i.a], m.pop(), fc.pos[pc])
		if err != nil {
			return err
		}
		m.push(v)

	case opErr:
		return &RuntimeError{Pos: fc.pos[pc], Msg: fc.names[i.a]}

	case opRefSlot:
		if !fr.live[i.a] {
			return m.undefErr(pc, i.a)
		}
		m.pushRef(&fr.slots[i.a])

	case opRefData:
		v, err := in.Env.DataRef(fc.names[i.a])
		if err != nil {
			return &RuntimeError{Pos: fc.pos[pc], Msg: err.Error()}
		}
		m.pushRef(v)

	case opRefAttr:
		v, err := in.Env.AttrRef(fc.names[i.a])
		if err != nil {
			return &RuntimeError{Pos: fc.pos[pc], Msg: err.Error()}
		}
		m.pushRef(v)

	case opCheckArr:
		b := m.refs[len(m.refs)-1]
		if b.Type == nil || b.Type.Kind != KArray {
			return &RuntimeError{Pos: fc.pos[pc], Msg: fmt.Sprintf("indexing non-array %s", b.Type)}
		}

	case opRefIndex:
		idx := m.pop().I
		b := m.refs[len(m.refs)-1]
		if idx < 0 || idx >= int64(len(b.Elems)) {
			return &RuntimeError{Pos: fc.pos[pc],
				Msg: fmt.Sprintf("index %d out of range [0,%d)", idx, len(b.Elems))}
		}
		m.refs[len(m.refs)-1] = &b.Elems[idx]

	case opRefMember:
		b := m.refs[len(m.refs)-1]
		if b.Type == nil || b.Type.Kind != KStruct {
			return &RuntimeError{Pos: fc.pos[pc],
				Msg: fmt.Sprintf("member access on non-struct %s", b.Type)}
		}
		name := fc.names[i.a]
		fi := b.Type.FieldIndex(name)
		if fi < 0 {
			return &RuntimeError{Pos: fc.pos[pc],
				Msg: fmt.Sprintf("struct %s has no field %q", b.Type.Name, name)}
		}
		m.refs[len(m.refs)-1] = &b.Elems[fi]

	case opLoadRef:
		m.load(m.popRef(), i)

	case opStoreRef:
		rv := m.pop()
		ref := m.popRef()
		nv, err := convertForAssign(ref.Type, rv, fc.pos[pc])
		if err != nil {
			return err
		}
		assignInto(ref, nv, i.c == 0)
		m.push(*ref)

	case opCompRef:
		rv := m.pop()
		ref := m.popRef()
		if !ref.IsScalar() || !rv.IsScalar() {
			return &RuntimeError{Pos: fc.pos[pc], Msg: "compound assignment needs scalar operands"}
		}
		res, err := applyBinaryID(int(i.b), binOpNames[i.b], *ref, rv, fc.pos[pc])
		if err != nil {
			return err
		}
		*ref = Int(ref.Type.Base, res.I)
		m.push(*ref)

	case opIncRef:
		ref := m.popRef()
		if !ref.IsScalar() {
			return &RuntimeError{Pos: fc.pos[pc], Msg: "operand of ++/-- must be scalar"}
		}
		return m.incCommon(ref, i.a)

	case opData:
		v, err := in.Env.DataRef(fc.names[i.a])
		if err != nil {
			return &RuntimeError{Pos: fc.pos[pc], Msg: err.Error()}
		}
		m.load(v, i)

	case opAttr:
		v, err := in.Env.AttrRef(fc.names[i.a])
		if err != nil {
			return &RuntimeError{Pos: fc.pos[pc], Msg: err.Error()}
		}
		m.load(v, i)

	case opIORead:
		idx := m.pop().I
		v, err := in.Env.IORead(fc.names[i.a], idx)
		if err != nil {
			return &RuntimeError{Pos: fc.pos[pc], Msg: err.Error()}
		}
		m.push(v)

	case opIOWrite:
		v := m.pop()
		idx := m.pop().I
		if err := in.Env.IOWrite(fc.names[i.a], idx, v); err != nil {
			return &RuntimeError{Pos: fc.pos[pc], Msg: err.Error()}
		}
		m.push(v)

	case opScalarize:
		if v := m.stack[len(m.stack)-1]; !v.IsScalar() {
			return &RuntimeError{Pos: fc.pos[pc], Msg: fmt.Sprintf("expected scalar, got %s", v.Type)}
		}

	case opNeg:
		v := m.pop()
		if !v.IsScalar() {
			return &RuntimeError{Pos: fc.pos[pc], Msg: fmt.Sprintf("unary - on non-scalar %s", v.Type)}
		}
		m.push(Int(promoteBase(v.Type.Base, I32), -v.I))

	case opBitNot:
		v := m.pop()
		if !v.IsScalar() {
			return &RuntimeError{Pos: fc.pos[pc], Msg: fmt.Sprintf("unary ~ on non-scalar %s", v.Type)}
		}
		m.push(Int(promoteBase(v.Type.Base, I32), ^v.I))

	case opNot:
		v := m.pop()
		if !v.IsScalar() {
			return &RuntimeError{Pos: fc.pos[pc], Msg: fmt.Sprintf("unary ! on non-scalar %s", v.Type)}
		}
		m.push(Int(Bool, b2i(!v.Truth())))

	case opSwitchCond:
		v := m.pop()
		if !v.IsScalar() {
			return &RuntimeError{Pos: fc.pos[pc], Msg: "switch condition must be scalar"}
		}
		fr.slots[i.a] = v

	case opCallUser:
		n := int(i.b)
		args := m.stack[len(m.stack)-n:]
		ret, err := in.vmCall(m.code, m.code.flist[i.a], args, fc.pos[pc])
		if err != nil {
			return err
		}
		m.stack = m.stack[:len(m.stack)-n]
		m.push(ret)

	case opBuiltin:
		n := int(i.b)
		args := m.stack[len(m.stack)-n:]
		v, err := callBuiltin(int(i.a), args, n, fc.pos[pc])
		if err != nil {
			return err
		}
		m.stack = m.stack[:len(m.stack)-n]
		m.push(v)

	case opIntrinsic:
		n := int(i.b)
		name := fc.names[i.a]
		// The environment sees the arguments in place on the operand
		// stack; Env.Intrinsic must not keep args past the call.
		args := m.stack[len(m.stack)-n:]
		if in.Env != nil {
			v, handled, err := in.Env.Intrinsic(name, args)
			if err != nil {
				return &RuntimeError{Pos: fc.pos[pc], Msg: err.Error()}
			}
			if handled {
				m.stack = m.stack[:len(m.stack)-n]
				m.push(v)
				return nil
			}
		}
		return &RuntimeError{Pos: fc.pos[pc], Msg: fmt.Sprintf("unknown function %q", name)}

	default:
		return &RuntimeError{Pos: fc.pos[pc], Msg: fmt.Sprintf("filterc vm: bad opcode %d", i.op)}
	}
	return nil
}

// callBuiltin mirrors the walker's builtin dispatch in evalCall.
func callBuiltin(id int, args []Value, n int, at Pos) (Value, error) {
	switch id {
	case builtinMin, builtinMax:
		name := "min"
		if id == builtinMax {
			name = "max"
		}
		if n != 2 || !args[0].IsScalar() || !args[1].IsScalar() {
			return Value{}, &RuntimeError{Pos: at, Msg: name + " expects two scalars"}
		}
		a, b := args[0].I, args[1].I
		if (id == builtinMin) == (a < b) {
			return Int(promoteBase(args[0].Type.Base, args[1].Type.Base), a), nil
		}
		return Int(promoteBase(args[0].Type.Base, args[1].Type.Base), b), nil
	case builtinAbs:
		if n != 1 || !args[0].IsScalar() {
			return Value{}, &RuntimeError{Pos: at, Msg: "abs expects one scalar"}
		}
		v := args[0].I
		if v < 0 {
			v = -v
		}
		return Int(I32, v), nil
	default: // builtinClamp
		if n != 3 || !args[0].IsScalar() || !args[1].IsScalar() || !args[2].IsScalar() {
			return Value{}, &RuntimeError{Pos: at, Msg: "clamp expects three scalars"}
		}
		v, lo, hi := args[0].I, args[1].I, args[2].I
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		return Int(I32, v), nil
	}
}
