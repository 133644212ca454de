# CTest script: one circuit whatever the backend. Runs
#   ${MQSP_PREP} ${PREP_ARGS} --qasm <variant>
# for each ';'-separated entry of VARIANTS ("-" = no extra flag) and
# requires byte-identical MQSP-QASM on stdout from every variant, with
# EXPECT_OPS operations reported on stderr — every path synthesizes from
# the reduced diagram, so neither --backend nor a pruning pass that cuts
# nothing may change the circuit.

separate_arguments(prep_args UNIX_COMMAND "${PREP_ARGS}")
set(first_variant "")
set(first_qasm "")
foreach(variant IN LISTS VARIANTS)
  set(variant_args "")
  if(NOT variant STREQUAL "-")
    separate_arguments(variant_args UNIX_COMMAND "${variant}")
  endif()
  execute_process(
    COMMAND ${MQSP_PREP} ${prep_args} --qasm ${variant_args}
    OUTPUT_VARIABLE qasm
    ERROR_VARIABLE prep_stderr
    RESULT_VARIABLE prep_result)
  if(NOT prep_result EQUAL 0)
    message(FATAL_ERROR "mqsp_prep ${PREP_ARGS} ${variant} failed (${prep_result}): ${prep_stderr}")
  endif()
  if(NOT prep_stderr MATCHES "operations        : ${EXPECT_OPS} ")
    message(FATAL_ERROR
      "mqsp_prep ${PREP_ARGS} ${variant} did not emit ${EXPECT_OPS} operations:\n${prep_stderr}")
  endif()
  if(first_variant STREQUAL "")
    set(first_variant "${variant}")
    set(first_qasm "${qasm}")
  elseif(NOT qasm STREQUAL first_qasm)
    message(FATAL_ERROR
      "mqsp_prep ${PREP_ARGS}: the circuit under '${variant}' differs from the one under "
      "'${first_variant}'")
  endif()
endforeach()

message(STATUS "cli_backend_agreement OK: ${PREP_ARGS}")
