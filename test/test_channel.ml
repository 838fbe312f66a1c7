(* Lossy links and the reliable-channel stack (Section 1.1's substrate). *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_net
open Helpers

let n = 4

(* the ring token from test_net, restated: a payload that must survive n*3
   hops to produce outputs *)
let ring_node : (unit, int, int) Netsim.node =
  let next ~n self = Pid.of_int ((Pid.to_int self mod n) + 1) in
  {
    Netsim.init =
      (fun ~n ~self ->
        if Pid.to_int self = 1 then ((), [ Netsim.Send (next ~n (Pid.of_int 1), 1) ])
        else ((), []));
    on_message =
      (fun ~n ~self ~now:_ () ~src:_ hops ->
        if hops >= 3 * n then ((), [], [ hops ])
        else ((), [ Netsim.Send (next ~n self, hops + 1) ], [ hops ]));
    on_timer = (fun ~n:_ ~self:_ ~now:_ () ~tag:_ -> ((), [], []));
  }

let lossy = Link.lossy ~drop:0.4 (Link.Synchronous { delta = 5 })

let link_tests =
  [
    test "lossy links actually drop" (fun () ->
        let rng = Rng.make 5 in
        let dropped =
          List.length
            (List.filter
               (fun _ -> Link.transmit lossy rng ~now:0 = None)
               (List.init 500 Fun.id))
        in
        Alcotest.(check bool)
          (Format.asprintf "%d/500 dropped" dropped)
          true
          (dropped > 120 && dropped < 280));
    test "loss-free models never drop" (fun () ->
        let rng = Rng.make 5 in
        List.iter
          (fun _ ->
            Alcotest.(check bool) "delivered" true
              (Link.transmit (Link.Synchronous { delta = 5 }) rng ~now:0 <> None))
          (List.init 100 Fun.id));
    test "lossy validates drop rate" (fun () ->
        Alcotest.check_raises "drop=1" (Invalid_argument "Link.lossy: drop out of [0,1)")
          (fun () -> ignore (Link.lossy ~drop:1.0 (Link.Synchronous { delta = 1 }))));
    test "lossy keeps the base delay bound" (fun () ->
        Alcotest.(check (option int)) "bound" (Some 5) (Link.bound_after_gst lossy));
  ]

let channel_tests =
  [
    test "the bare ring dies on a lossy link" (fun () ->
        let r =
          Netsim.run ~n ~pattern:(Pattern.failure_free ~n) ~model:lossy ~seed:3
            ~horizon:20_000 ring_node
        in
        (* a single 40%-lossy token walk of 12 hops survives with p < 0.003 *)
        Alcotest.(check bool) "token lost" true (List.length r.Netsim.outputs < 3 * n));
    test "the wrapped ring completes on the same link" (fun () ->
        let r =
          Netsim.run ~n ~pattern:(Pattern.failure_free ~n) ~model:lossy ~seed:3
            ~horizon:20_000
            (Channel.reliable ~retransmit_every:15 ring_node)
        in
        Alcotest.(check bool) "token survived" true (List.length r.Netsim.outputs >= 3 * n));
    test "no duplicate inner deliveries" (fun () ->
        let r =
          Netsim.run ~n ~pattern:(Pattern.failure_free ~n) ~model:lossy ~seed:7
            ~horizon:20_000
            (Channel.reliable ~retransmit_every:15 ring_node)
        in
        (* each hop value is delivered exactly once ring-wide *)
        let hops = List.map (fun (_, _, h) -> h) r.Netsim.outputs in
        let sorted = List.sort compare hops in
        let rec no_dup = function
          | a :: b :: _ when a = b -> false
          | _ :: rest -> no_dup rest
          | [] -> true
        in
        Alcotest.(check bool) "unique hops" true (no_dup sorted));
    test "channel quiesces once acks land (loss-free)" (fun () ->
        let r =
          Netsim.run ~n ~pattern:(Pattern.failure_free ~n)
            ~model:(Link.Synchronous { delta = 5 })
            ~seed:3 ~horizon:20_000
            (Channel.reliable ~retransmit_every:15 ring_node)
        in
        Pid.Map.iter
          (fun p st ->
            Alcotest.(check int)
              (Format.asprintf "%a outbox empty" Pid.pp p)
              0 (Channel.unacked st))
          r.Netsim.final_states);
    test "inner state is observable through the wrapper" (fun () ->
        let r =
          Netsim.run ~n ~pattern:(Pattern.failure_free ~n)
            ~model:(Link.Synchronous { delta = 5 })
            ~seed:3 ~horizon:20_000
            (Channel.reliable ~retransmit_every:15 ring_node)
        in
        Pid.Map.iter (fun _ st -> Channel.inner st) r.Netsim.final_states);
    test "rejects a zero retransmission period" (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Channel.reliable: retransmit_every must be >= 1") (fun () ->
            ignore (Channel.reliable ~retransmit_every:0 ring_node)));
    qtest ~count:15 "wrapped ring survives any seed on a 40% lossy link"
      QCheck.small_int (fun seed ->
        let r =
          Netsim.run ~n ~pattern:(Pattern.failure_free ~n) ~model:lossy ~seed
            ~horizon:40_000
            (Channel.reliable ~retransmit_every:15 ring_node)
        in
        List.length r.Netsim.outputs >= 3 * n);
    test "heartbeats over a reliable channel stay perfect-grade" (fun () ->
        (* loss would otherwise cause false suspicions even on a synchronous
           base link; the channel restores the Perfect implementation -
           with a timeout enlarged by the retransmission worst case *)
        let pattern = pattern ~n [ (3, 800) ] in
        (* the timeout must absorb several retransmission rounds: a beat
           dropped k times arrives ~k*15 late *)
        let style = Heartbeat.Fixed { period = 30; timeout = 120 } in
        let r =
          Netsim.run ~n ~pattern
            ~model:(Link.lossy ~drop:0.2 (Link.Synchronous { delta = 5 }))
            ~seed:9 ~horizon:4000
            (Channel.reliable ~retransmit_every:15 (Heartbeat.node style))
        in
        let report = Qos.analyze r in
        Alcotest.(check bool) "complete" true report.Qos.complete;
        Alcotest.(check bool) "accurate" true report.Qos.accurate);
  ]

let () =
  Alcotest.run "channel"
    [ suite "lossy-links" link_tests; suite "reliable-channel" channel_tests ]
