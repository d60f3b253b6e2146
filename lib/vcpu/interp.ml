module As = Mem.Addr_space

type fault =
  | Page_fault of { rip : int; addr : int; access : As.access }
  | Div_by_zero of { rip : int }
  | Invalid_opcode of { rip : int; opcode : int }
  | Bad_shift of { rip : int; count : int }

type vmexit =
  | Syscall
  | Halt
  | Fault of fault
  | Out_of_fuel

exception Exit_run of vmexit

(* Unsigned comparison of native ints (flip the sign bit). *)
let unsigned_lt a b = a lxor min_int < b lxor min_int

let effective_addr (cpu : Cpu.t) (m : Isa.Insn.mem) =
  let base = match m.base with None -> 0 | Some r -> Cpu.get cpu r in
  let index =
    match m.index with None -> 0 | Some (r, scale) -> Cpu.get cpu r * scale
  in
  base + index + m.disp

let operand_value cpu = function
  | Isa.Insn.Reg r -> Cpu.get cpu r
  | Isa.Insn.Imm v -> v

let set_zs (cpu : Cpu.t) v =
  cpu.flags.zf <- v = 0;
  cpu.flags.sf <- v < 0

(* Execute one decoded instruction whose size is [sz]; returns an exit or
   unit.  [cpu.rip] still points at the instruction on entry.  All helpers
   are top-level so the hot loop allocates nothing per instruction. *)
let[@inline] retire_at (cpu : Cpu.t) addr =
  cpu.rip <- addr;
  cpu.retired <- cpu.retired + 1

let[@inline] push_word (cpu : Cpu.t) aspace v =
  let sp = Cpu.get cpu Isa.Reg.rsp - 8 in
  As.write_u64 aspace sp v;
  Cpu.set cpu Isa.Reg.rsp sp

let[@inline] pop_word (cpu : Cpu.t) aspace =
  let sp = Cpu.get cpu Isa.Reg.rsp in
  let v = As.read_u64 aspace sp in
  Cpu.set cpu Isa.Reg.rsp (sp + 8);
  v

let exec (cpu : Cpu.t) aspace insn sz : vmexit option =
  let open Isa.Insn in
  let next = cpu.rip + sz in
  match insn with
  | Nop ->
    retire_at cpu next;
    None
  | Hlt ->
    cpu.retired <- cpu.retired + 1;
    Some Halt
  | Syscall ->
    (* rip advances first so the libOS can resume the guest after serving
       the call (or restart a guess from a snapshot taken here). *)
    retire_at cpu next;
    Some Syscall
  | Ret ->
    let target = pop_word cpu aspace in
    retire_at cpu target;
    None
  | Mov (r, op) ->
    Cpu.set cpu r (operand_value cpu op);
    retire_at cpu next;
    None
  | Lea (r, m) ->
    Cpu.set cpu r (effective_addr cpu m);
    retire_at cpu next;
    None
  | Ld (Q, r, m) ->
    Cpu.set cpu r (As.read_u64 aspace (effective_addr cpu m));
    retire_at cpu next;
    None
  | Ld (B, r, m) ->
    Cpu.set cpu r (As.read_u8 aspace (effective_addr cpu m));
    retire_at cpu next;
    None
  | St (Q, m, r) ->
    As.write_u64 aspace (effective_addr cpu m) (Cpu.get cpu r);
    retire_at cpu next;
    None
  | St (B, m, r) ->
    As.write_u8 aspace (effective_addr cpu m) (Cpu.get cpu r);
    retire_at cpu next;
    None
  | Sti (Q, m, v) ->
    As.write_u64 aspace (effective_addr cpu m) v;
    retire_at cpu next;
    None
  | Sti (B, m, v) ->
    As.write_u8 aspace (effective_addr cpu m) v;
    retire_at cpu next;
    None
  | Bin (op, r, operand) ->
    let a = Cpu.get cpu r in
    let b = operand_value cpu operand in
    let v =
      match op with
      | Add -> a + b
      | Sub -> a - b
      | Imul -> a * b
      | Div ->
        if b = 0 then raise (Exit_run (Fault (Div_by_zero { rip = cpu.rip })));
        a / b
      | Rem ->
        if b = 0 then raise (Exit_run (Fault (Div_by_zero { rip = cpu.rip })));
        a mod b
      | And -> a land b
      | Or -> a lor b
      | Xor -> a lxor b
      | Shl | Shr | Sar ->
        if b < 0 || b > 62 then
          raise (Exit_run (Fault (Bad_shift { rip = cpu.rip; count = b })));
        (match op with
        | Shl -> a lsl b
        | Shr -> a lsr b
        | Sar -> a asr b
        | Add | Sub | Imul | Div | Rem | And | Or | Xor -> assert false)
    in
    Cpu.set cpu r v;
    set_zs cpu v;
    retire_at cpu next;
    None
  | Un (op, r) ->
    let a = Cpu.get cpu r in
    let v =
      match op with Neg -> -a | Not -> lnot a | Inc -> a + 1 | Dec -> a - 1
    in
    Cpu.set cpu r v;
    set_zs cpu v;
    retire_at cpu next;
    None
  | Cmp (r, operand) ->
    let a = Cpu.get cpu r in
    let b = operand_value cpu operand in
    cpu.flags.zf <- a = b;
    cpu.flags.sf <- a - b < 0;
    cpu.flags.lt_s <- a < b;
    cpu.flags.lt_u <- unsigned_lt a b;
    retire_at cpu next;
    None
  | Test (r, operand) ->
    let v = Cpu.get cpu r land operand_value cpu operand in
    cpu.flags.zf <- v = 0;
    cpu.flags.sf <- v < 0;
    cpu.flags.lt_s <- false;
    cpu.flags.lt_u <- false;
    retire_at cpu next;
    None
  | Jmp target ->
    retire_at cpu target;
    None
  | Jcc (c, target) ->
    retire_at cpu (if Cpu.eval_cond cpu c then target else next);
    None
  | Call target ->
    push_word cpu aspace next;
    retire_at cpu target;
    None
  | Push op ->
    push_word cpu aspace (operand_value cpu op);
    retire_at cpu next;
    None
  | Pop r ->
    Cpu.set cpu r (pop_word cpu aspace);
    retire_at cpu next;
    None
  | Setcc (c, r) ->
    Cpu.set cpu r (if Cpu.eval_cond cpu c then 1 else 0);
    retire_at cpu next;
    None

(* Decoded instructions are memoised per immutable frame: Addr_space
   guarantees that a frame owned by a retired generation never changes in
   place (writes COW into a fresh frame with a fresh id), so per-frame
   decode arrays never need invalidation.  The cache keeps the last-used
   frame's array in a hot slot — guest code is typically one or two frames.
   Instructions close to the page edge (they may cross it) always take the
   slow path.

   On top of the per-instruction arrays sits basic-block superinstruction
   dispatch (the default): a cache miss decodes forward through
   straight-line code — stopping at control flow, [syscall]/[hlt], the
   page edge, and a maximum block length — and fuses the run into a
   preassembled instruction array.  Dispatch then executes whole blocks,
   resolving the fetch frame once per block instead of once per
   instruction.  Invalidation rides the same frame-generation discipline
   (blocks are keyed to retired-generation frame ids that never change in
   place); the one case the per-block grain adds is a store COWing the
   block's own code page mid-block (self-modifying straight-line code),
   which is caught by re-checking the fetch mapping after every fused
   store and splitting the block there. *)
let max_insn_bytes = 24
let max_block_insns = 64

type dispatch = Insn | Block

type op = Cpu.t -> As.t -> vmexit option
(* One fused instruction, compiled to a closure at fuse time: operand
   shapes are pre-matched, register numbers and immediates live in the
   closure environment, and the rip delta is baked in.  Contract: behaves
   exactly like [exec insn sz] — retires-and-returns-[None], returns
   [Some] for syscall/hlt, or raises [As.Page_fault]/[Exit_run] with
   [cpu.rip] still at the instruction. *)

type block = {
  b_fid : int;
      (* frame the block was fused from; compared against the live fetch
         mapping after fused stores to catch self-modifying code *)
  b_ops : op array;
      (* straight-line run, terminator (branch/syscall/hlt) last *)
  b_writes : bool array;
      (* b_writes.(i): instruction i may store to guest memory, so the
         fetch mapping must be re-verified before running i+1 *)
  b_has_writes : bool; (* false lets dispatch skip the per-insn check *)
}

type icache = {
  dispatch : dispatch;
  (* per-instruction decode arrays (Insn dispatch, and block fusion) *)
  mutable hot_fid : int;
  mutable hot_arr : (Isa.Insn.t * int) option array;
  frames : (int, (Isa.Insn.t * int) option array) Hashtbl.t;
  (* per-block superinstruction tables (Block dispatch), keyed by the
     block's first-instruction offset within its frame *)
  mutable hot_bfid : int;
  mutable hot_blocks : block option array;
  bframes : (int, block option array) Hashtbl.t;
  (* Observability counters, kept off the per-instruction hit path: the
     hit count is derivable as retired - misses - slow_decodes. *)
  mutable misses : int; (* cacheable instructions decoded into the cache *)
  mutable slow_decodes : int; (* uncacheable: page edge or mutable frame *)
  mutable block_fuses : int; (* blocks assembled *)
  mutable block_hits : int; (* whole-block dispatches from the cache *)
  mutable block_splits : int; (* dispatches that exited a block early *)
}

let create_icache ?(dispatch = Block) () =
  { dispatch;
    hot_fid = -1; hot_arr = [||]; frames = Hashtbl.create 16;
    hot_bfid = -1; hot_blocks = [||]; bframes = Hashtbl.create 16;
    misses = 0; slow_decodes = 0;
    block_fuses = 0; block_hits = 0; block_splits = 0 }

let icache_counts cache = (cache.misses, cache.slow_decodes)
let block_counts cache =
  (cache.block_fuses, cache.block_hits, cache.block_splits)

let decode_at ?icache (cpu : Cpu.t) aspace rip =
  let slow () =
    let fetch addr = As.read_u8 aspace addr in
    Isa.Encode.decode ~fetch rip
  in
  ignore cpu;
  match icache with
  | None -> slow ()
  | Some cache ->
    let offset = Mem.Page.offset_of_addr rip in
    if offset > Mem.Page.size - max_insn_bytes then begin
      cache.slow_decodes <- cache.slow_decodes + 1;
      slow ()
    end
    else begin
      let frame = As.reading_frame aspace rip in
      if not (As.frame_is_immutable aspace frame) then begin
        cache.slow_decodes <- cache.slow_decodes + 1;
        slow ()
      end
      else begin
        if cache.hot_fid <> frame.Mem.Phys_mem.id then begin
          let arr =
            match Hashtbl.find_opt cache.frames frame.Mem.Phys_mem.id with
            | Some arr -> arr
            | None ->
              let arr = Array.make Mem.Page.size None in
              Hashtbl.replace cache.frames frame.Mem.Phys_mem.id arr;
              arr
          in
          cache.hot_fid <- frame.Mem.Phys_mem.id;
          cache.hot_arr <- arr
        end;
        match Array.unsafe_get cache.hot_arr offset with
        | Some decoded -> decoded
        | None ->
          cache.misses <- cache.misses + 1;
          let bytes = frame.Mem.Phys_mem.bytes in
          let fetch addr = Bytes.get_uint8 bytes (offset + (addr - rip)) in
          let decoded = Isa.Encode.decode ~fetch rip in
          cache.hot_arr.(offset) <- Some decoded;
          decoded
      end
    end

let step_inner ?icache (cpu : Cpu.t) aspace =
  let rip = cpu.rip in
  match decode_at ?icache cpu aspace rip with
  | exception As.Page_fault { addr; access } ->
    Some (Fault (Page_fault { rip; addr; access }))
  | exception Isa.Encode.Invalid_opcode { addr = _; opcode } ->
    Some (Fault (Invalid_opcode { rip; opcode }))
  | insn, sz -> (
    match exec cpu aspace insn sz with
    | result -> result
    | exception As.Page_fault { addr; access } ->
      cpu.rip <- rip;
      (* faults leave rip at the faulting instruction *)
      Some (Fault (Page_fault { rip; addr; access }))
    | exception Exit_run e ->
      cpu.rip <- rip;
      Some e)

let step cpu aspace = step_inner cpu aspace

(* {1 Basic-block superinstruction dispatch} *)

let ends_block (insn : Isa.Insn.t) =
  match insn with
  | Hlt | Syscall | Ret | Jmp _ | Jcc _ | Call _ -> true
  | Nop | Mov _ | Lea _ | Ld _ | St _ | Sti _ | Bin _ | Un _ | Cmp _
  | Test _ | Push _ | Pop _ | Setcc _ -> false

let writes_memory (insn : Isa.Insn.t) =
  match insn with
  | St _ | Sti _ | Push _ | Call _ -> true
  | Nop | Hlt | Syscall | Ret | Mov _ | Lea _ | Ld _ | Bin _ | Un _ | Cmp _
  | Test _ | Jmp _ | Jcc _ | Pop _ | Setcc _ -> false

(* Compile one decoded instruction into a superinstruction slot.  The
   specialised arms cover the ALU/mov/compare shapes straight-line code is
   made of; everything with a rare or faulting shape falls back to a
   closure over the generic [exec].  Each arm re-derives exactly the
   semantics of the corresponding [exec] arm — keep them in lockstep. *)
let compile_op (insn : Isa.Insn.t) sz : op =
  let open Isa.Insn in
  let fallback () cpu aspace = exec cpu aspace insn sz in
  match insn with
  | Nop ->
    fun (cpu : Cpu.t) _ ->
      cpu.rip <- cpu.rip + sz;
      cpu.retired <- cpu.retired + 1;
      None
  | Mov (r, Imm v) ->
    let r = Isa.Reg.to_int r in
    fun (cpu : Cpu.t) _ ->
      Array.unsafe_set cpu.regs r v;
      cpu.rip <- cpu.rip + sz;
      cpu.retired <- cpu.retired + 1;
      None
  | Mov (r, Reg r2) ->
    let r = Isa.Reg.to_int r and r2 = Isa.Reg.to_int r2 in
    fun (cpu : Cpu.t) _ ->
      Array.unsafe_set cpu.regs r (Array.unsafe_get cpu.regs r2);
      cpu.rip <- cpu.rip + sz;
      cpu.retired <- cpu.retired + 1;
      None
  | Bin (op, r, operand) -> (
    let r = Isa.Reg.to_int r in
    let alu f =
      fun (cpu : Cpu.t) _ ->
        let v = f cpu in
        Array.unsafe_set cpu.regs r v;
        cpu.flags.zf <- v = 0;
        cpu.flags.sf <- v < 0;
        cpu.rip <- cpu.rip + sz;
        cpu.retired <- cpu.retired + 1;
        None
    in
    match op, operand with
    | Add, Imm v -> alu (fun cpu -> Array.unsafe_get cpu.regs r + v)
    | Sub, Imm v -> alu (fun cpu -> Array.unsafe_get cpu.regs r - v)
    | Imul, Imm v -> alu (fun cpu -> Array.unsafe_get cpu.regs r * v)
    | And, Imm v -> alu (fun cpu -> Array.unsafe_get cpu.regs r land v)
    | Or, Imm v -> alu (fun cpu -> Array.unsafe_get cpu.regs r lor v)
    | Xor, Imm v -> alu (fun cpu -> Array.unsafe_get cpu.regs r lxor v)
    | Add, Reg r2 ->
      let r2 = Isa.Reg.to_int r2 in
      alu (fun cpu -> Array.unsafe_get cpu.regs r + Array.unsafe_get cpu.regs r2)
    | Sub, Reg r2 ->
      let r2 = Isa.Reg.to_int r2 in
      alu (fun cpu -> Array.unsafe_get cpu.regs r - Array.unsafe_get cpu.regs r2)
    | Imul, Reg r2 ->
      let r2 = Isa.Reg.to_int r2 in
      alu (fun cpu -> Array.unsafe_get cpu.regs r * Array.unsafe_get cpu.regs r2)
    | And, Reg r2 ->
      let r2 = Isa.Reg.to_int r2 in
      alu (fun cpu ->
          Array.unsafe_get cpu.regs r land Array.unsafe_get cpu.regs r2)
    | Or, Reg r2 ->
      let r2 = Isa.Reg.to_int r2 in
      alu (fun cpu ->
          Array.unsafe_get cpu.regs r lor Array.unsafe_get cpu.regs r2)
    | Xor, Reg r2 ->
      let r2 = Isa.Reg.to_int r2 in
      alu (fun cpu ->
          Array.unsafe_get cpu.regs r lxor Array.unsafe_get cpu.regs r2)
    | (Div | Rem | Shl | Shr | Sar), _ ->
      (* faulting shapes: shared with the cold interpreter arm *)
      fallback ())
  | Un (op, r) ->
    let r = Isa.Reg.to_int r in
    let f =
      match op with
      | Inc -> fun a -> a + 1
      | Dec -> fun a -> a - 1
      | Neg -> fun a -> -a
      | Not -> lnot
    in
    fun (cpu : Cpu.t) _ ->
      let v = f (Array.unsafe_get cpu.regs r) in
      Array.unsafe_set cpu.regs r v;
      cpu.flags.zf <- v = 0;
      cpu.flags.sf <- v < 0;
      cpu.rip <- cpu.rip + sz;
      cpu.retired <- cpu.retired + 1;
      None
  | Cmp (r, operand) ->
    let r = Isa.Reg.to_int r in
    let value =
      match operand with
      | Imm v -> fun (_ : Cpu.t) -> v
      | Reg r2 ->
        let r2 = Isa.Reg.to_int r2 in
        fun (cpu : Cpu.t) -> Array.unsafe_get cpu.regs r2
    in
    fun (cpu : Cpu.t) _ ->
      let a = Array.unsafe_get cpu.regs r in
      let b = value cpu in
      cpu.flags.zf <- a = b;
      cpu.flags.sf <- a - b < 0;
      cpu.flags.lt_s <- a < b;
      cpu.flags.lt_u <- unsigned_lt a b;
      cpu.rip <- cpu.rip + sz;
      cpu.retired <- cpu.retired + 1;
      None
  | Test (r, operand) ->
    let r = Isa.Reg.to_int r in
    let value =
      match operand with
      | Imm v -> fun (_ : Cpu.t) -> v
      | Reg r2 ->
        let r2 = Isa.Reg.to_int r2 in
        fun (cpu : Cpu.t) -> Array.unsafe_get cpu.regs r2
    in
    fun (cpu : Cpu.t) _ ->
      let v = Array.unsafe_get cpu.regs r land value cpu in
      cpu.flags.zf <- v = 0;
      cpu.flags.sf <- v < 0;
      cpu.flags.lt_s <- false;
      cpu.flags.lt_u <- false;
      cpu.rip <- cpu.rip + sz;
      cpu.retired <- cpu.retired + 1;
      None
  | Ld (Q, r, { base = Some b; index = None; disp }) ->
    let r = Isa.Reg.to_int r and b = Isa.Reg.to_int b in
    fun (cpu : Cpu.t) aspace ->
      Array.unsafe_set cpu.regs r
        (As.read_u64 aspace (Array.unsafe_get cpu.regs b + disp));
      cpu.rip <- cpu.rip + sz;
      cpu.retired <- cpu.retired + 1;
      None
  | St (Q, { base = Some b; index = None; disp }, r) ->
    let r = Isa.Reg.to_int r and b = Isa.Reg.to_int b in
    fun (cpu : Cpu.t) aspace ->
      As.write_u64 aspace
        (Array.unsafe_get cpu.regs b + disp)
        (Array.unsafe_get cpu.regs r);
      cpu.rip <- cpu.rip + sz;
      cpu.retired <- cpu.retired + 1;
      None
  | Jmp target ->
    fun (cpu : Cpu.t) _ ->
      cpu.rip <- target;
      cpu.retired <- cpu.retired + 1;
      None
  | Jcc (c, target) ->
    fun (cpu : Cpu.t) _ ->
      cpu.rip <- (if Cpu.eval_cond cpu c then target else cpu.rip + sz);
      cpu.retired <- cpu.retired + 1;
      None
  | Setcc (c, r) ->
    let r = Isa.Reg.to_int r in
    fun (cpu : Cpu.t) _ ->
      Array.unsafe_set cpu.regs r (if Cpu.eval_cond cpu c then 1 else 0);
      cpu.rip <- cpu.rip + sz;
      cpu.retired <- cpu.retired + 1;
      None
  | Hlt | Syscall | Ret | Lea _ | Ld _ | St _ | Sti _ | Call _ | Push _
  | Pop _ ->
    fallback ()

(* Decode forward from [start_offset] through straight-line code, entirely
   within the immutable frame's bytes.  Stops at block terminators, the
   page-edge guard (an instruction that may cross the edge must take the
   slow path, exactly as in per-instruction mode), [max_block_insns], and
   undecodable bytes (the block ends before them; reaching them re-raises
   the fault through the slow path).  [None] iff not even the first
   instruction was fusable. *)
let fuse_block cache (frame : Mem.Phys_mem.frame) start_offset start_rip =
  let bytes = frame.Mem.Phys_mem.bytes in
  let insns = ref [] in
  let count = ref 0 in
  let offset = ref start_offset in
  let rip = ref start_rip in
  let fusing = ref true in
  while !fusing do
    if !offset > Mem.Page.size - max_insn_bytes || !count >= max_block_insns
    then fusing := false
    else begin
      let off = !offset and pc = !rip in
      match
        Isa.Encode.decode
          ~fetch:(fun addr -> Bytes.get_uint8 bytes (off + (addr - pc)))
          pc
      with
      | exception Isa.Encode.Invalid_opcode _ -> fusing := false
      | (insn, sz) as decoded ->
        cache.misses <- cache.misses + 1;
        insns := decoded :: !insns;
        incr count;
        offset := off + sz;
        rip := pc + sz;
        if ends_block insn then fusing := false
    end
  done;
  match !insns with
  | [] -> None
  | l ->
    let arr = Array.of_list (List.rev l) in
    let writes = Array.map (fun (insn, _) -> writes_memory insn) arr in
    Some
      { b_fid = frame.Mem.Phys_mem.id;
        b_ops = Array.map (fun (insn, sz) -> compile_op insn sz) arr;
        b_writes = writes;
        b_has_writes = Array.exists Fun.id writes }

(* The per-instruction loops of [exec_block], top-level so dispatching a
   block allocates no closure.  Run ops [i..limit) of a block of [n]; the
   result is the terminator's exit, or [None] when the block ran out or
   was split. *)
let rec exec_ops cache (cpu : Cpu.t) aspace ops n limit i =
  if i >= limit then begin
    if limit < n then cache.block_splits <- cache.block_splits + 1;
    None
  end
  else
    match (Array.unsafe_get ops i) cpu aspace with
    | Some _ as exit -> exit (* syscall/hlt terminator: always last *)
    | None -> exec_ops cache cpu aspace ops n limit (i + 1)

(* As [exec_ops], re-checking the fetch mapping after every store. *)
let rec exec_ops_checked cache (cpu : Cpu.t) aspace (b : block) n limit i =
  if i >= limit then begin
    if limit < n then cache.block_splits <- cache.block_splits + 1;
    None
  end
  else
    match (Array.unsafe_get b.b_ops i) cpu aspace with
    | Some _ as exit -> exit
    | None ->
      if
        i + 1 < limit
        && Array.unsafe_get b.b_writes i
        && (As.reading_frame aspace cpu.rip).Mem.Phys_mem.id <> b.b_fid
      then begin
        (* The store COW'd the block's own code page (self-modifying
           straight-line code): the fused tail decodes stale bytes, so
           split here and re-dispatch at the — now mutable — frame. *)
        cache.block_splits <- cache.block_splits + 1;
        None
      end
      else exec_ops_checked cache cpu aspace b n limit (i + 1)

(* Execute up to [budget] instructions of [b] from its head (cpu.rip is the
   head).  Returns the vmexit if one materialised; [None] means every
   instruction retired and either the block is done or the budget ran out —
   the caller recomputes consumed fuel from the retired delta, which keeps
   block dispatch bit-identical to per-instruction fuel accounting.

   The exception handler is hoisted out of the per-instruction loop: ops
   (like [exec], whose contract they share) only move [cpu.rip] as the
   last step of a retiring instruction, so when [As.Page_fault] or
   [Exit_run] escapes, [cpu.rip] still addresses the faulting
   instruction — exactly the rip per-instruction dispatch reports. *)
let exec_block cache (cpu : Cpu.t) aspace (b : block) ~budget =
  let n = Array.length b.b_ops in
  let limit = if budget < n then budget else n in
  match
    if b.b_has_writes then exec_ops_checked cache cpu aspace b n limit 0
    else exec_ops cache cpu aspace b.b_ops n limit 0
  with
  | result -> result
  | exception As.Page_fault { addr; access } ->
    cache.block_splits <- cache.block_splits + 1;
    let rip = cpu.rip in
    Some (Fault (Page_fault { rip; addr; access }))
  | exception Exit_run e ->
    cache.block_splits <- cache.block_splits + 1;
    Some e

let rec run_block cache (cpu : Cpu.t) aspace ~fuel =
  if fuel <= 0 then Out_of_fuel
  else begin
    let rip = cpu.rip in
    let offset = Mem.Page.offset_of_addr rip in
    if offset > Mem.Page.size - max_insn_bytes then
      slow_block_step cache cpu aspace fuel
    else
      match As.reading_frame aspace rip with
      | exception As.Page_fault { addr; access } ->
        Fault (Page_fault { rip; addr; access })
      | frame ->
        if not (As.frame_is_immutable aspace frame) then
          slow_block_step cache cpu aspace fuel
        else begin
          if cache.hot_bfid <> frame.Mem.Phys_mem.id then begin
            let arr =
              match Hashtbl.find_opt cache.bframes frame.Mem.Phys_mem.id with
              | Some arr -> arr
              | None ->
                let arr = Array.make Mem.Page.size None in
                Hashtbl.replace cache.bframes frame.Mem.Phys_mem.id arr;
                arr
            in
            cache.hot_bfid <- frame.Mem.Phys_mem.id;
            cache.hot_blocks <- arr
          end;
          match Array.unsafe_get cache.hot_blocks offset with
          | Some b ->
            cache.block_hits <- cache.block_hits + 1;
            dispatch_block cache cpu aspace b fuel
          | None -> (
            match fuse_block cache frame offset rip with
            | None -> slow_block_step cache cpu aspace fuel
            | Some b ->
              cache.block_fuses <- cache.block_fuses + 1;
              cache.hot_blocks.(offset) <- Some b;
              dispatch_block cache cpu aspace b fuel)
        end
  end

and dispatch_block cache (cpu : Cpu.t) aspace b fuel =
  let before = cpu.retired in
  match exec_block cache cpu aspace b ~budget:fuel with
  | Some e -> e
  | None -> run_block cache cpu aspace ~fuel:(fuel - (cpu.retired - before))

and slow_block_step cache cpu aspace fuel =
  cache.slow_decodes <- cache.slow_decodes + 1;
  match step_inner cpu aspace with
  | None -> run_block cache cpu aspace ~fuel:(fuel - 1)
  | Some e -> e

let rec run_insn ?icache cpu aspace ~fuel =
  if fuel <= 0 then Out_of_fuel
  else
    match step_inner ?icache cpu aspace with
    | None -> run_insn ?icache cpu aspace ~fuel:(fuel - 1)
    | Some e -> e

let run ?icache cpu aspace ~fuel =
  match icache with
  | Some ({ dispatch = Block; _ } as cache) -> run_block cache cpu aspace ~fuel
  | None | Some { dispatch = Insn; _ } -> run_insn ?icache cpu aspace ~fuel

let pp_fault fmt = function
  | Page_fault { rip; addr; access } ->
    Format.fprintf fmt "page fault at rip=0x%x addr=0x%x (%s)" rip addr
      (match access with As.Read -> "read" | As.Write -> "write")
  | Div_by_zero { rip } -> Format.fprintf fmt "division by zero at rip=0x%x" rip
  | Invalid_opcode { rip; opcode } ->
    Format.fprintf fmt "invalid opcode 0x%x at rip=0x%x" opcode rip
  | Bad_shift { rip; count } ->
    Format.fprintf fmt "shift count %d out of range at rip=0x%x" count rip

let pp_vmexit fmt = function
  | Syscall -> Format.pp_print_string fmt "syscall"
  | Halt -> Format.pp_print_string fmt "halt"
  | Fault f -> Format.fprintf fmt "fault: %a" pp_fault f
  | Out_of_fuel -> Format.pp_print_string fmt "out of fuel"
