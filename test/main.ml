let () =
  Alcotest.run "mini-nova"
    [ Test_engine.suite;
      Test_mem.suite;
      Test_cache.suite;
      Test_mmu.suite;
      Test_devices.suite;
      Test_workloads.suite;
      Test_pl.suite;
      Test_core.suite;
      Test_kernel.suite;
      Test_ucos.suite;
      Test_hwapi.suite;
      Test_harness.suite;
      Test_models.suite;
      Test_platform.suite;
      Test_hwtm.suite;
      Test_faults.suite;
      Test_edge.suite;
      Test_fastpath.suite;
      Test_obs.suite;
      Test_slo.suite;
      Test_check.suite;
      Test_ring.suite;
      Test_ctrlpath.suite;
      Test_smp.suite;
      Test_experiment.suite ]
