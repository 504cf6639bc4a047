// Package pedf implements the Predicated Execution DataFlow framework of
// the paper (Section IV): a dynamic hybrid dataflow programming framework
// for the P2012 platform. It provides the three entity classes — Filter,
// Controller and Module — typed FIFO data links carrying tokens, and the
// step-based controller scheduling protocol (ACTOR_START / ACTOR_SYNC /
// ACTOR_FIRE, WAIT_FOR_ACTOR_INIT / WAIT_FOR_ACTOR_SYNC).
//
// The framework is deliberately debugger-agnostic: it only reports
// function entries/exits to an optionally attached lowdbg.Debugger — the
// moral equivalent of the CPU executing instrumentable function entry
// points. All dataflow-debugging intelligence lives in internal/core,
// which reconstructs everything from these intercepted calls, exactly as
// the paper's GDB extension does (its Section V "we decided not to alter
// the dataflow framework").
package pedf

// Framework API symbols, the surface the dataflow debugger instruments
// with function breakpoints. Registration symbols fire during the
// framework's initialization phase (graph reconstruction, paper
// contribution #1); scheduling symbols during controller steps
// (contribution #2); link symbols on every token exchange
// (contribution #3), announced with a typed lowdbg.DataCall record whose
// argument list (below) is built only for a breakpoint that is not typed.
const (
	// SymRegisterModule announces a module: args module, parent.
	SymRegisterModule = "pedf_register_module"
	// SymRegisterFilter announces a filter: args filter, module.
	SymRegisterFilter = "pedf_register_filter"
	// SymRegisterController announces a module's controller: args module.
	SymRegisterController = "pedf_register_controller"
	// SymRegisterPort announces a port: args actor, port, dir, type.
	SymRegisterPort = "pedf_register_port"
	// SymBind announces a link: args link(id), src, src_port, dst,
	// dst_port, kind.
	SymBind = "pedf_bind"

	// SymLinkPush fires when a producer pushes a token: args link, src,
	// src_port, dst, dst_port, index, value. Data-exchange breakpoint.
	SymLinkPush = "pedf_link_push"
	// SymLinkPop fires when a consumer pops a token: args link, src,
	// src_port, dst, dst_port, index; the token value is the return
	// value (finish breakpoints read it). Data-exchange breakpoint.
	SymLinkPop = "pedf_link_pop"
	// SymCtrlPush / SymCtrlPop are the control-link variants. The paper
	// notes that "control tokens do not rely on the same breakpoints" as
	// data exchanges, so disabling data-exchange breakpoints (mitigation
	// option 1) keeps control-token monitoring alive.
	SymCtrlPush = "pedf_ctrl_push"
	SymCtrlPop  = "pedf_ctrl_pop"

	// SymActorStart fires on ACTOR_START: args module, filter.
	SymActorStart = "pedf_actor_start"
	// SymActorSync fires on ACTOR_SYNC: args module, filter.
	SymActorSync = "pedf_actor_sync"
	// SymWaitActorInit fires on WAIT_FOR_ACTOR_INIT: args module.
	SymWaitActorInit = "pedf_wait_actor_init"
	// SymWaitActorSync fires on WAIT_FOR_ACTOR_SYNC: args module.
	SymWaitActorSync = "pedf_wait_actor_sync"
	// SymStepBegin fires at the start of a controller step: args module, step.
	SymStepBegin = "pedf_step_begin"
	// SymStepEnd fires at the end of a controller step: args module, step.
	SymStepEnd = "pedf_step_end"
)

// RegistrationSymbols lists the init-phase API functions.
func RegistrationSymbols() []string {
	return []string{SymRegisterModule, SymRegisterFilter, SymRegisterController,
		SymRegisterPort, SymBind}
}

// SchedulingSymbols lists the controller-protocol API functions.
func SchedulingSymbols() []string {
	return []string{SymActorStart, SymActorSync, SymWaitActorInit,
		SymWaitActorSync, SymStepBegin, SymStepEnd}
}

// DataSymbols lists the token-exchange API functions (the expensive,
// frequently-triggered breakpoints of Section V).
func DataSymbols() []string {
	return []string{SymLinkPush, SymLinkPop}
}

// ControlSymbols lists the control-token exchange API functions.
func ControlSymbols() []string {
	return []string{SymCtrlPush, SymCtrlPop}
}

// Target helper functions the runtime registers with the low-level
// debugger (lowdbg.RegisterTargetFunc) so the dataflow layer can alter
// the execution (GDB's "call an inferior function" mechanism).
const (
	// TFLinkInject appends a token: args linkID int64, value filterc.Value.
	TFLinkInject = "pedf_link_inject"
	// TFLinkDrop removes the i-th queued token: args linkID, index int64.
	TFLinkDrop = "pedf_link_drop"
	// TFLinkReplace overwrites the i-th queued token's payload:
	// args linkID, index int64, value filterc.Value.
	TFLinkReplace = "pedf_link_replace"
	// TFLinkPeek reads the i-th queued token: args linkID, index int64;
	// returns filterc.Value.
	TFLinkPeek = "pedf_link_peek"
	// TFLinkOccupancy returns the token count of a link: args linkID.
	TFLinkOccupancy = "pedf_link_occupancy"
	// TFLinkInjectZero appends a zero token of the link's own type (the
	// unstick recovery primitive): args linkID; returns the injected
	// filterc.Value.
	TFLinkInjectZero = "pedf_link_inject_zero"
	// TFFilterLine returns an actor's currently executed source line:
	// args name string; returns int64.
	TFFilterLine = "pedf_filter_line"
	// TFFilterBlocked returns an actor's blocking link operation
	// ("pop:iface", "push:iface" or ""): args name string.
	TFFilterBlocked = "pedf_filter_blocked"
)

// EnvActor is the pseudo-actor name representing the host-side
// environment feeding the top-level module inputs and draining outputs.
const EnvActor = "env"
