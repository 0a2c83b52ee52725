let behavior ~registers ~ident ?scan_delay ?poll_delay app =
  (* One cursor per register: a read hands over only the entries this
     process has not been handed yet, still one register read each. *)
  let cursors = Array.map Thc_sharedmem.Swmr.cursor registers in
  let board =
    {
      Scan_rounds.publish =
        (fun ~round ~payload ->
          let self = Thc_crypto.Keyring.pid_of_secret ident in
          Thc_sharedmem.Swmr.append registers.(self) ~ident (round, payload));
      read =
        (fun j ->
          List.map
            (fun (round, payload) -> (j, round, payload))
            (Thc_sharedmem.Swmr.read_new cursors.(j)));
      targets = Array.length registers;
    }
  in
  Scan_rounds.behavior ~board ?scan_delay ?poll_delay app
