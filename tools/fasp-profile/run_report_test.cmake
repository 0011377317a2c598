# Shape test for fasp-profile: run all three render modes over the
# export-demo golden (a deterministic schema-v8 document with spans,
# contention, heat, and outliers) and assert each output carries the
# expected structure.

function(require_match text pattern what)
    if(NOT text MATCHES "${pattern}")
        message(FATAL_ERROR "fasp-profile ${what}: missing '${pattern}'")
    endif()
endfunction()

# Text report.
execute_process(
    COMMAND ${PROFILE_BIN} ${GOLDEN_JSON}
    OUTPUT_VARIABLE report RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fasp-profile exited with ${rc}")
endif()
require_match("${report}" "== transaction spans ==" "report")
require_match("${report}" "== latch contention ==" "report")
require_match("${report}" "== page heat" "report")
require_match("${report}" "== p99 outliers ==" "report")
require_match("${report}" "FAST" "report")
require_match("${report}" "log-flush" "report")
require_match("${report}" "hot_page=3" "report")
# The contention section names its pages from page_heat, most waits
# first: page 3 (2 waits, 1 conflict, 3000 ns), then page 11.
require_match("${report}"
    "== latch contention ==\nwaits=3 conflicts=1 [^\n]*\n *page +waits +conflicts +wait_ns\n +3 +2 +1 +3000\n +11 +1 +0 +500\n"
    "report")

# Stable report: no wall-clock fields may leak through.
execute_process(
    COMMAND ${PROFILE_BIN} --stable ${GOLDEN_JSON}
    OUTPUT_VARIABLE stable RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fasp-profile --stable exited with ${rc}")
endif()
require_match("${stable}" "captured=" "--stable")
require_match("${stable}" "\n +3 +2 +1\n +11 +1 +0\n" "--stable")
if(stable MATCHES "wall p50" OR stable MATCHES "hot_page"
   OR stable MATCHES "wait_ns" OR stable MATCHES "wait p95")
    message(FATAL_ERROR "fasp-profile --stable leaks timing fields")
endif()

# JSON artifact.
execute_process(
    COMMAND ${PROFILE_BIN} --json ${GOLDEN_JSON}
    OUTPUT_VARIABLE artifact RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fasp-profile --json exited with ${rc}")
endif()
require_match("${artifact}" "\"tool\": \"fasp-profile\"" "--json")
require_match("${artifact}" "\"dominant_phase\": \"log-flush\"" "--json")
require_match("${artifact}"
    "\"contended_pages\": \\[{\"page\": 3, \"waits\": 2, \"conflicts\": 1, \"wait_ns\": 3000}, {\"page\": 11,"
    "--json")

# chrome://tracing document.
execute_process(
    COMMAND ${PROFILE_BIN} --trace=${WORK_DIR}/outliers.trace.json
        ${GOLDEN_JSON}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fasp-profile --trace exited with ${rc}")
endif()
file(READ ${WORK_DIR}/outliers.trace.json trace)
require_match("${trace}" "traceEvents" "--trace")
require_match("${trace}" "\"ph\": \"X\"" "--trace")
