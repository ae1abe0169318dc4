(* Message-level trace of the protocol's key flows (Figures 1, 4 and 5 of
   the paper): watch the 3-hop baseline pattern, then the delegation
   handshake, request forwarding, speculative updates and undelegation.

     dune exec examples/protocol_trace.exe *)

open Pcc

let shared = Types.Layout.make_line ~home:0 ~index:0

let programs epochs =
  Array.init 4 (fun node ->
      List.concat
        (List.init epochs (fun e ->
             let produce =
               if node = 1 then [ Types.Access (Types.Store, shared) ] else []
             in
             let consume =
               if node = 2 || node = 3 then [ Types.Access (Types.Load, shared) ] else []
             in
             produce
             @ [ Types.Barrier ((2 * e) + 1); Types.Compute 800 ]
             @ consume
             @ [ Types.Barrier ((2 * e) + 2) ]))
      @ if node = 3 then [ Types.Barrier 999; Types.Access (Types.Store, shared) ]
        else [ Types.Barrier 999 ])

let () =
  let config = Config.full ~nodes:4 () in
  let t = System.create ~config () in
  let annotate msg =
    match msg with
    | Message.Delegate _ -> "  <-- directory delegation (Fig. 4a)"
    | Message.New_home _ -> "  <-- consumer learns the delegated home (Fig. 4b)"
    | Message.Fwd_get_shared _ -> "  <-- request forwarding (Fig. 4b)"
    | Message.Update _ -> "  <-- speculative update (Sec. 2.4)"
    | Message.Recall _ -> "  <-- undelegation trigger (Fig. 5)"
    | Message.Undelegate _ -> "  <-- undelegation (Fig. 5)"
    | Message.Intervention _ -> "  <-- 3-hop read: home intervenes at the owner"
    | _ -> ""
  in
  System.on_message t (fun ~time ~src ~dst msg ->
      Format.printf "%8d  n%d -> n%d  %-38s%s@." time src dst
        (Format.asprintf "%a" Message.pp msg)
        (annotate msg));
  Format.printf
    "Trace of one producer (n1), two consumers (n2, n3), line homed at n0.@.\
     The final store by n3 forces undelegation.@.@.";
  let result = System.run_programs t (programs 6) in
  Format.printf "@.Run complete: %d cycles, %d messages, %d violations.@."
    result.System.cycles result.System.network_messages result.System.violations
