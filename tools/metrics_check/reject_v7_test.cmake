# Negative test of `metrics_check --metrics`: the v8 export-demo golden
# passes, while copies of it that claim schema v7 or carry one v7
# leftover each (a top-level `histograms` object, a number directly
# under `counters`) fail with the matching message.
#
# Inputs: CHECK_BIN, GOLDEN_V8, WORK_DIR.

function(expect_check file want_rc pattern)
    execute_process(
        COMMAND ${CHECK_BIN} --metrics ${file}
        ERROR_VARIABLE out RESULT_VARIABLE rc)
    if(NOT rc EQUAL want_rc)
        message(FATAL_ERROR
            "metrics_check on ${file} exited ${rc}, want ${want_rc}:\n${out}")
    endif()
    if(NOT out MATCHES "${pattern}")
        message(FATAL_ERROR
            "metrics_check on ${file}: missing '${pattern}':\n${out}")
    endif()
endfunction()

expect_check(${GOLDEN_V8} 0 "metrics_check: OK")

file(READ ${GOLDEN_V8} v8)

string(REPLACE "\"schema_version\": 8" "\"schema_version\": 7"
       as_v7 "${v8}")
file(WRITE ${WORK_DIR}/v8_as_v7.json "${as_v7}")
expect_check(${WORK_DIR}/v8_as_v7.json 1 "schema_version != 8")

string(REPLACE "\"counters\": {" "\"histograms\": {},\n  \"counters\": {"
       with_histograms "${v8}")
file(WRITE ${WORK_DIR}/v8_with_histograms.json "${with_histograms}")
expect_check(${WORK_DIR}/v8_with_histograms.json 1
             "v7 \"histograms\" section present")

string(REPLACE "\"counters\": {" "\"counters\": {\"core.tx.commits\": 1,"
       with_flat_counter "${v8}")
file(WRITE ${WORK_DIR}/v8_with_flat_counter.json "${with_flat_counter}")
expect_check(${WORK_DIR}/v8_with_flat_counter.json 1
             "counters.core.tx.commits: not an object")
