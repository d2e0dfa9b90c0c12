# Hostile CLI input fails loudly: the command exits with the expected
# non-zero code and its error names the offending flag or log line.
#   -DNFVPRED=<binary> -DWORK_DIR=<work dir> -DCASE=bad_flag|bad_timestamp
file(MAKE_DIRECTORY ${WORK_DIR})

function(expect_reject want_rc want_err)
  execute_process(COMMAND ${NFVPRED} ${ARGN}
                  RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL want_rc OR NOT err MATCHES "${want_err}")
    message(FATAL_ERROR
            "'${ARGN}': want exit ${want_rc} and /${want_err}/, "
            "got ${rc} / ${err}")
  endif()
endfunction()

if(CASE STREQUAL "bad_flag")
  expect_reject(1 "error: --vpe expects an integer, got '12x'"
                simulate --out ${WORK_DIR}/unused.log --vpe 12x)
  expect_reject(1 "error: --gap-scale expects a number, got 'fast'"
                simulate --out ${WORK_DIR}/unused.log --gap-scale fast)
  if(EXISTS ${WORK_DIR}/unused.log)
    message(FATAL_ERROR "a rejected simulate still wrote its output")
  endif()
elseif(CASE STREQUAL "bad_timestamp")
  set(LOG ${WORK_DIR}/bad_timestamp.log)
  file(WRITE ${LOG} "1000 link up on port ge-0/0/1\n"
                    "10O1 link down on port ge-0/0/1\n")
  expect_reject(2 "bad_timestamp.log:2: timestamp '10O1' is not an integer"
                mine --logs ${LOG})
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
