let () =
  Alcotest.run "loopcoal"
    [
      ("util", Test_util.suite);
      ("ir", Test_ir.suite);
      ("analysis", Test_analysis.suite);
      ("transform", Test_transform.suite);
      ("transform2", Test_transform2.suite);
      ("transform3", Test_transform3.suite);
      ("soundness", Test_soundness.suite);
      ("frontend", Test_frontend.suite);
      ("reporting", Test_reporting.suite);
      ("emit-c", Test_emit_c.suite);
      ("sched", Test_sched.suite);
      ("machine", Test_machine.suite);
      ("workload", Test_workload.suite);
      ("driver", Test_driver.suite);
      ("runtime", Test_runtime.suite);
      ("bytecode", Test_bytecode.suite);
      ("tapeopt", Test_tapeopt.suite);
      ("tapecheck", Test_tapecheck.suite);
      ("plancache", Test_plancache.suite);
      ("obs", Test_obs.suite);
      ("profile", Test_profile.suite);
      ("verify", Test_verify.suite);
      ("search", Test_search.suite);
      ("native", Test_native.suite);
      ("firsttouch", Test_first_touch.suite);
    ]
