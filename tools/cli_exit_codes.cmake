# Exit-code contract of the resilient CLI (tools/hpcapctl.cpp header):
#   2  usage error (strict parsing of the resilience flags)
#   3  transport failure (daemon unreachable / lost, budget exhausted)
#   5  daemon rejected the session
# (4 — a wire-protocol violation — needs a misbehaving peer and is
# exercised by the net_* test suites at the library level.)
#
# Inputs: -DHPCAPCTL=<path> -DHPCAPD=<path>

# The timeout turns a daemon that wrongly starts serving into a failure
# instead of a hang.
function(run_expect want what)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET TIMEOUT 60)
  if(NOT rc EQUAL ${want})
    message(FATAL_ERROR "${what}: expected exit ${want}, got '${rc}'")
  endif()
  message(STATUS "${what}: exit ${rc} (ok)")
endfunction()

# --- usage errors: a typo in a retry budget must never become a silent
# zero budget.
run_expect(2 "stream --retries abc"
           ${HPCAPCTL} stream --port 1 --trace nope.csv --retries abc)
run_expect(2 "stream --backoff-ms 0"
           ${HPCAPCTL} stream --port 1 --trace nope.csv --backoff-ms 0)
run_expect(2 "stream --deadline-s junk"
           ${HPCAPCTL} stream --port 1 --trace nope.csv --deadline-s junk)
run_expect(2 "stream --retries -3"
           ${HPCAPCTL} stream --port 1 --trace nope.csv --retries -3)
run_expect(2 "stream missing --trace/--port" ${HPCAPCTL} stream --port 1)
run_expect(2 "hpcapd --decision-replay 0"
           ${HPCAPD} --decision-replay 0)
run_expect(2 "hpcapd --session-linger junk"
           ${HPCAPD} --session-linger junk)

# --- transport failure: nothing listens on port 1. Reported before the
# trace file is ever opened, with and without a retry policy.
run_expect(3 "stream vs dead port"
           ${HPCAPCTL} stream --port 1 --trace nope.csv)
run_expect(3 "stream vs dead port with retries"
           ${HPCAPCTL} stream --port 1 --trace nope.csv
           --retries 2 --backoff-ms 10 --deadline-s 1)

# --- session rejection: a live daemon refuses a HELLO with the wrong
# tier count. Train a model, run the daemon on an ephemeral port in the
# background, and parse the advertised port from its startup line.
set(model "${CMAKE_CURRENT_BINARY_DIR}/cli_exit_model.hpcap")
set(log "${CMAKE_CURRENT_BINARY_DIR}/cli_exit_daemon.log")
execute_process(COMMAND ${HPCAPCTL} train --out ${model} --level hpc
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "hpcapctl train failed: ${rc}")
endif()

# Configurations the daemon refuses are usage errors, reported before it
# serves (with a valid model, so only the flag under test is wrong).
# Hand-off is the only shard placement; the retired names are refused.
run_expect(2 "hpcapd --shard-mode auto"
           ${HPCAPD} --model ${model} --port 0 --reactors 2 --shard-mode auto)
run_expect(2 "hpcapd --shard-mode reuseport"
           ${HPCAPD} --model ${model} --port 0 --reactors 2
           --shard-mode reuseport)
# A replay ring smaller than the write queue is refused at startup (the
# daemon could not replay every decision of a session it drops).
run_expect(2 "hpcapd --decision-replay below --max-write-queue"
           ${HPCAPD} --model ${model} --port 0 --decision-replay 4)
run_expect(2 "serve --decision-replay below --max-write-queue"
           ${HPCAPCTL} serve --model ${model} --port 0 --decision-replay 4)

execute_process(
  COMMAND bash -c "'${HPCAPD}' --model '${model}' --port 0 > '${log}' 2>&1 & echo $!"
  OUTPUT_VARIABLE daemon_pid OUTPUT_STRIP_TRAILING_WHITESPACE)

set(port "")
foreach(attempt RANGE 100)
  if(EXISTS ${log})
    file(READ ${log} contents)
    if(contents MATCHES "listening on [0-9.]+:([0-9]+)")
      set(port ${CMAKE_MATCH_1})
      break()
    endif()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(port STREQUAL "")
  execute_process(COMMAND kill ${daemon_pid})
  message(FATAL_ERROR "daemon never advertised its port (see ${log})")
endif()

run_expect(5 "stream with mismatched tier count"
           ${HPCAPCTL} stream --port ${port} --trace nope.csv --num-tiers 9)
run_expect(5 "stream with mismatched tier count and retries"
           ${HPCAPCTL} stream --port ${port} --trace nope.csv --num-tiers 9
           --retries 2 --backoff-ms 10 --deadline-s 1)

execute_process(COMMAND kill ${daemon_pid})
