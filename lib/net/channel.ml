open Rlfd_kernel

type 'm msg = Data of { seq : int; payload : 'm } | Ack of { seq : int }

(* The retransmission timer hides behind a reserved tag; the inner node's
   own timers pass through untouched. *)
let channel_tag = min_int

type ('s, 'm) state = {
  inner_state : 's;
  next_seq : int;
  outbox : (Pid.t * int * 'm) list; (* unacked: destination, seq, payload *)
  delivered : (Pid.t * int) list; (* (src, seq) already handed to the inner node *)
}

let inner st = st.inner_state

let unacked st = List.length st.outbox

(* Translate the inner node's commands: sends become sequenced Data frames
   added to the outbox (and transmitted at once); everything else passes. *)
let translate ~n ~self st commands =
  List.fold_left
    (fun (st, out) command ->
      match command with
      | Netsim.Send (dst, payload) ->
        let seq = st.next_seq in
        ( { st with next_seq = seq + 1; outbox = (dst, seq, payload) :: st.outbox },
          Netsim.Send (dst, Data { seq; payload }) :: out )
      | Netsim.Broadcast payload ->
        List.fold_left
          (fun (st, out) dst ->
            if Pid.equal dst self then (st, out)
            else begin
              let seq = st.next_seq in
              ( { st with next_seq = seq + 1; outbox = (dst, seq, payload) :: st.outbox },
                Netsim.Send (dst, Data { seq; payload }) :: out )
            end)
          (st, out) (Pid.all ~n)
      | Netsim.Set_timer { delay; tag } ->
        if tag = channel_tag then
          invalid_arg "Channel.reliable: the inner node used the reserved timer tag";
        (st, Netsim.Set_timer { delay; tag } :: out)
      | Netsim.Halt -> (st, Netsim.Halt :: out))
    (st, []) commands
  |> fun (st, out) -> (st, List.rev out)

let reliable ~retransmit_every node =
  if retransmit_every < 1 then
    invalid_arg "Channel.reliable: retransmit_every must be >= 1";
  let arm = Netsim.Set_timer { delay = retransmit_every; tag = channel_tag } in
  let init ~n ~self =
    let inner_state, commands = node.Netsim.init ~n ~self in
    let st = { inner_state; next_seq = 0; outbox = []; delivered = [] } in
    let st, commands = translate ~n ~self st commands in
    (st, arm :: commands)
  in
  let on_message ~n ~self ~now st ~src frame =
    match frame with
    | Ack { seq } ->
      ( { st with
          outbox =
            List.filter (fun (dst, s, _) -> not (Pid.equal dst src && s = seq)) st.outbox },
        [], [] )
    | Data { seq; payload } ->
      let ack = Netsim.Send (src, Ack { seq }) in
      if List.mem (src, seq) st.delivered then (st, [ ack ], [])
      else begin
        let st = { st with delivered = (src, seq) :: st.delivered } in
        let inner_state, commands, outputs =
          node.Netsim.on_message ~n ~self ~now st.inner_state ~src payload
        in
        let st, commands = translate ~n ~self { st with inner_state } commands in
        (st, ack :: commands, outputs)
      end
  in
  let on_timer ~n ~self ~now st ~tag =
    if tag = channel_tag then begin
      let resends = List.map (fun (dst, seq, payload) -> Netsim.Send (dst, Data { seq; payload })) st.outbox in
      (st, arm :: resends, [])
    end
    else begin
      let inner_state, commands, outputs =
        node.Netsim.on_timer ~n ~self ~now st.inner_state ~tag
      in
      let st, commands = translate ~n ~self { st with inner_state } commands in
      (st, commands, outputs)
    end
  in
  { Netsim.init; on_message; on_timer }
